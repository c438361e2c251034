#pragma once

#include <limits>
#include <set>
#include <string_view>
#include <vector>

#include "mtree/vo.h"
#include "sim/types.h"

namespace tcvs {
namespace core {

/// Which protocol the scenario runs.
enum class ProtocolKind : uint8_t {
  /// No verification at all: plain client/server. Performance floor.
  kPlain = 0,
  /// Per-operation local checks only (VO consistency, per-user counter
  /// monotonicity) with NO external communication — everything a user can do
  /// alone. Exists to demonstrate Theorem 3.1: it cannot detect forks.
  kNoExternalComm = 1,
  /// The §2.2.3 token-passing baseline: pre-specified slots in a fixed user
  /// order, null records when idle. Correct but destroys workload
  /// preservation.
  kTokenBaseline = 2,
  /// Protocol I (§4.2): signed root digests + broadcast sync every k ops.
  kProtocolI = 3,
  /// Protocol II (§4.3): user-tagged XOR state registers, no signatures, no
  /// blocking message.
  kProtocolII = 4,
  /// Protocol II with UNTAGGED fingerprints — the insecure first attempt of
  /// §4.3, vulnerable to the Figure-3 replay. Ablation arm only.
  kProtocolIINaive = 5,
  /// Protocol III (§4.4): epoch-based audit through the server, no broadcast
  /// channel.
  kProtocolIII = 6,
};

std::string_view ProtocolKindToString(ProtocolKind kind);

/// How sync-up reports travel between users (Protocols I/II).
enum class SyncMode : uint8_t {
  /// The paper's scheme: every user broadcasts its report to every other —
  /// Θ(n²) messages per sync-up, O(n) work per client.
  kBroadcast = 0,
  /// Future-work item (2) of the paper: reports are XOR/sum-aggregated up a
  /// static binary tree of users, the root broadcasts the aggregate, and
  /// only matching users answer — Θ(n) messages per sync-up, O(1) work per
  /// client.
  kAggregationTree = 1,
};

std::string_view SyncModeToString(SyncMode mode);

/// What one step of the server's attack does. Every attack is a schedule of
/// AttackSteps (AttackConfig); a classic single attack is a one-step
/// schedule.
enum class AttackKind : uint8_t {
  /// No step (the default of a fresh AttackStep).
  kHonest = 0,
  /// Fork / partition attack (Figure 1): at `at` the server clones its state,
  /// and from then on the victims are served the clone while everyone else
  /// stays on the main branch.
  kFork = 1,
  // 2 is unused: the values are the campaign schedule's wire values.
  /// Selective drop (availability violation): commits by the victims inside
  /// the window are acknowledged with a valid pre-state proof but never
  /// applied; nothing else changes.
  kDrop = 3,
  /// Figure-3 replay: from `at` on, the victims' operations are served on
  /// recorded pre-states of honest transitions (skipping the first `arg`),
  /// duplicating (state, ctr) pairs across users. Defeats untagged XOR
  /// registers; caught by tagging.
  kReplaySegment = 4,
  /// Protocol III: withhold the victims' stored epoch states from the
  /// auditor inside the window.
  kOmitEpochState = 5,
  /// Protocol III: substitute the victims' previous-epoch (stale) blob.
  kStaleEpochState = 6,
  /// Availability violation by silence: inside the window the server answers
  /// no query at all (victims are ignored). Only the b*-bounded-transaction
  /// liveness check can catch this (no response ever arrives to verify).
  kStall = 7,
  /// Rollback: at `at` the server reverts its main branch by `arg`
  /// transitions and continues from the resurrected past — a fork whose
  /// second branch is history itself.
  kRollback = 8,
  /// Equivocation (integrity violation): commits by the victims inside the
  /// window are applied with altered content while everyone else sees the
  /// honest value.
  kEquivocate = 9,
  /// Delay: responses to the victims inside the window are held back `arg`
  /// extra rounds. Not a deviation by itself (bounded delay is within the
  /// model) — noise that perturbs interleavings and sync timing.
  kDelay = 10,
};

std::string_view AttackKindToString(AttackKind kind);

/// A window that never closes (AttackStep::duration).
inline constexpr uint64_t kForever = std::numeric_limits<uint64_t>::max();

/// \brief One step of an adversarial schedule. The server executes every step
/// of AttackConfig::schedule over one run, so fork + rollback + replay +
/// equivocation + selective-drop + delay compose into the interleaved
/// adversaries Cachin–Ohrimenko's fork-consistency results say are the
/// interesting ones. Times are the adversary's clock: the round in the
/// simulator, the transaction index in a deployment.
struct AttackStep {
  AttackKind kind = AttackKind::kHonest;
  /// Time at/after which the step engages.
  uint64_t at = 0;
  /// Windowed kinds (kDrop, kEquivocate, kDelay, kStall, kOmitEpochState,
  /// kStaleEpochState) stay active over [at, at + duration]; 0 means one
  /// time unit and kForever means no end. One-shot kinds (kFork, kRollback,
  /// kReplaySegment) ignore it.
  uint64_t duration = 0;
  /// Users the step targets. kFork: users routed to the forked branch;
  /// kReplaySegment: users served recorded transitions; every windowed kind
  /// but kStall: users whose operations are affected (empty = all).
  std::set<sim::AgentId> victims = {};
  /// Kind-specific: kRollback = transitions to revert (≥1); kDelay = extra
  /// rounds to hold responses; kReplaySegment = initial transitions the
  /// replay cursor skips; kEquivocate / kDrop = most commits the step alters
  /// (0 = every commit in the window).
  uint64_t arg = 0;
};

/// \brief The server's (mis)behaviour: honest when the schedule is empty.
struct AttackConfig {
  std::vector<AttackStep> schedule;
};

/// Per-user local clock period for p-partial synchrony (§2.1): a user with
/// period p acts (processes messages, issues operations) only every p-th
/// round. The map is sparse; absent users act every round.
using UserPeriods = std::map<sim::AgentId, sim::Round>;

/// \brief Everything needed to instantiate a scenario: protocol, population,
/// protocol parameters, and the server's (mis)behaviour.
struct ScenarioConfig {
  ProtocolKind protocol = ProtocolKind::kProtocolII;
  uint32_t num_users = 4;
  /// Protocol I/II: sync-up after a user completes k operations since the
  /// last sync (the k of k-bounded deviation detection).
  uint32_t sync_k = 8;
  /// Protocol III / token baseline: rounds per epoch / slot.
  sim::Round epoch_rounds = 50;
  sim::Round slot_rounds = 4;
  mtree::TreeParams tree_params;
  AttackConfig attack;
  /// MSS tree height for user signing keys (2^h signatures per user).
  int user_key_height = 10;
  /// Rounds at which user 1 announces an extra sync-up regardless of k —
  /// experiment control for scripted scenarios (e.g. Figure 3).
  std::vector<sim::Round> forced_syncs;
  /// Report dissemination at sync-up (broadcast vs aggregation tree).
  SyncMode sync_mode = SyncMode::kBroadcast;
  /// Fault localization (paper future-work item 1): each user keeps a ring
  /// buffer of its last `journal_len` transitions and attaches it to sync
  /// reports; on sync failure the evaluator reconstructs the transition
  /// graph and names the earliest inconsistent counter. 0 disables.
  /// Local state stays bounded: the journal length is a constant.
  uint32_t journal_len = 0;
  /// p-partial synchrony bound (§2.1): no user's local clock is slower than
  /// one tick per p rounds. Used to scale protocol timeouts. Per-user actual
  /// periods come from `user_periods`.
  sim::Round partial_sync_p = 1;
  /// Per-user local clock periods (≤ partial_sync_p each); sparse.
  UserPeriods user_periods;
  /// b*-bounded transaction time (§2.1): when nonzero, a user whose
  /// transaction has been outstanding for more than this many rounds reports
  /// an availability violation (the trusted server answers within b*; a
  /// stalling server is deviating). 0 disables the liveness check.
  sim::Round b_star = 0;
  /// Scenario seed for reproducibility bookkeeping: recorded in the
  /// ScenarioReport and appended to every deviation-detection audit event's
  /// detail, so any logged detection names the exact seed that reproduces
  /// it. 0 = unseeded (hand-scripted scenario).
  uint64_t seed = 0;
};

}  // namespace core
}  // namespace tcvs
