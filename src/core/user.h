#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/protocol_core.h"
#include "core/wire.h"
#include "crypto/keystore.h"
#include "crypto/merkle_sig.h"
#include "util/histogram.h"
#include "sim/kernel.h"
#include "sim/trace.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {

/// \brief A CVS user agent. Drives its workload script through the
/// configured protocol, performing every client-side verification step the
/// paper specifies:
///
/// * VO verification and local replay of updates (all protocols but kPlain),
/// * signature verification of the last writer's signed root (Protocol I and
///   the token baseline),
/// * counter monotonicity (gctr), σ/last register maintenance
///   (Protocols II/III, tagged or untagged),
/// * broadcast sync-up participation every k operations (Protocols I/II),
/// * per-epoch state snapshots, signed uploads, and the rotating audit
///   (Protocol III),
/// * slot discipline and slot/counter equality (token baseline).
///
/// Local state is O(1) in the database size and in the history length
/// (desideratum §2.2.5): a few counters, two digests, and the signing key.
class ProtocolUser : public sim::Agent {
 public:
  struct Options {
    ScenarioConfig config;
    sim::AgentId id = 1;
    uint32_t num_users = 1;
    workload::UserScript script;
    /// Signing key (Protocol I / token baseline / Protocol III); null
    /// otherwise.
    std::shared_ptr<crypto::MerkleSigner> signer;
    /// Verified directory of all users' public keys; null when unused.
    std::shared_ptr<const crypto::KeyStore> keystore;
    /// Shared ground-truth log (may be null).
    sim::TraceLog* trace = nullptr;
  };

  explicit ProtocolUser(Options options);

  void OnRound(sim::RoundContext* ctx) override;

  /// \name Statistics for the experiment harness.
  /// @{
  uint64_t ops_completed() const { return ops_completed_; }
  uint64_t lctr() const { return registers_.lctr; }
  uint64_t gctr() const { return registers_.gctr; }
  /// Sum over completed ops of (completion round − eligible round).
  uint64_t latency_sum() const { return latency_sum_; }
  uint64_t latency_max() const { return latency_max_; }
  /// Full latency distribution (rounds).
  const util::Histogram& latency_histogram() const { return latency_hist_; }
  /// True once every scripted operation has completed (a token-baseline
  /// null record in flight does not count — those continue forever).
  bool script_done() const {
    return script_pos_ >= options_.script.ops.size() &&
           (!inflight_.has_value() || inflight_->is_null);
  }
  const Bytes& sigma() const { return registers_.sigma; }
  const Bytes& last() const { return registers_.last; }
  /// @}

 private:
  struct Inflight {
    uint64_t qid;
    workload::ScheduledOp op;
    sim::Round sent_round;
    sim::Round eligible_round;
    bool is_null = false;       // Token baseline filler record.
    uint64_t expected_ctr = 0;  // Token baseline: ctr must equal slot index.
  };

  struct SyncState {
    uint64_t sync_id = 0;
    bool reported = false;
    /// Quarantine pools: peer reports arrive off the (adversary-scheduled)
    /// network and stay Tainted until the sync-up evaluation — which is
    /// itself the verification that consumes them. The pooled XOR check
    /// never feeds a register; it only passes or kills the client.
    std::map<uint32_t, util::Tainted<SyncReport>> reports;
    // Aggregation-tree mode:
    std::map<uint32_t, util::Tainted<AggReport>> child_aggs;
    bool total_received = false;
    Bytes sigma_total;
    uint64_t lctr_total = 0;
    std::optional<sim::Round> success_deadline;
  };

  bool UsesSync() const {
    ProtocolKind p = options_.config.protocol;
    return p == ProtocolKind::kProtocolI || p == ProtocolKind::kProtocolII ||
           p == ProtocolKind::kProtocolIINaive;
  }
  bool UsesXorRegisters() const {
    ProtocolKind p = options_.config.protocol;
    return p == ProtocolKind::kProtocolII ||
           p == ProtocolKind::kProtocolIINaive ||
           p == ProtocolKind::kProtocolIII ||
           p == ProtocolKind::kNoExternalComm;
  }
  bool UsesSignedRoots() const {
    ProtocolKind p = options_.config.protocol;
    return p == ProtocolKind::kProtocolI || p == ProtocolKind::kTokenBaseline;
  }

  void HandleResponse(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleSyncAnnounce(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleSyncReport(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleEpochReply(sim::RoundContext* ctx, const sim::Message& msg);

  void HandleAggReport(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleAggTotal(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleAggSuccess(sim::RoundContext* ctx, const sim::Message& msg);

  void MaybeSendQuery(sim::RoundContext* ctx);
  void SendOp(sim::RoundContext* ctx, const workload::ScheduledOp& op,
              bool is_null, uint64_t expected_ctr, sim::Round eligible);
  void MaybeAnnounceSync(sim::RoundContext* ctx);
  void StartSync(sim::RoundContext* ctx, uint64_t sync_id);
  void SendSyncReport(sim::RoundContext* ctx, SyncState* sync);
  void EvaluateSyncIfComplete(sim::RoundContext* ctx);
  void EvaluateBroadcastSync(sim::RoundContext* ctx, uint64_t id);
  /// Aggregation-tree mode: forward the subtree aggregate once idle and all
  /// child aggregates arrived; evaluate totals and deadlines.
  void StepTreeSync(sim::RoundContext* ctx);
  void StepTreeSyncOne(sim::RoundContext* ctx, SyncState* sync);
  /// Marks the sync complete. `ctx` is used only for observability: in the
  /// simulator `sync_id` is the announce round, so completion round minus
  /// sync_id is the sync-up duration.
  void FinishSyncSuccess(sim::RoundContext* ctx, uint64_t sync_id);
  void MaybeRequestAudit(sim::RoundContext* ctx);

  /// Verifies a quarantined response and folds it into local state: the
  /// reply is borrowed for the checks and endorsed (mtree::VoVerified) only
  /// after every one passes; the register fold reads the endorsed copy.
  /// On any verification failure, reports detection and returns false.
  bool VerifyAndFold(sim::RoundContext* ctx,
                     util::Tainted<QueryResponse> resp, const Inflight& op,
                     std::optional<Bytes>* observed);

  Options options_;
  uint64_t next_qid_ = 1;
  size_t script_pos_ = 0;
  std::optional<Inflight> inflight_;

  // Protocol registers (σ/last unused without XOR registers).
  Registers registers_;
  uint64_t ops_since_sync_ = 0;

  // Sync machinery. Under message delays > 1 round, two users can announce
  // sync-ups concurrently before seeing each other's announcement; users
  // therefore participate in every announced sync-up independently, keyed by
  // sync id. New transactions stay paused while any sync is active.
  std::map<uint64_t, SyncState> syncs_;

  // Fault-localization journal: the user's last journal_len transitions.
  std::vector<TransitionRecord> journal_;

  // Rollback checkpoint: gctr at the last successful sync-up. On detection,
  // everything after this point may need rolling back; nothing before does.
  uint64_t checkpoint_gctr_ = 0;

 public:
  uint64_t checkpoint_gctr() const { return checkpoint_gctr_; }

 private:

  // Protocol III.
  uint64_t current_epoch_ = 0;
  std::vector<EpochStateBlob> upload_queue_;
  uint64_t next_audit_epoch_ = 0;
  std::optional<uint64_t> audit_inflight_epoch_;

  // Token baseline.
  std::optional<uint64_t> last_slot_sent_;

  // Forced-sync experiment control.
  size_t forced_sync_idx_ = 0;

  // p-partial synchrony: this user's local-clock period and the messages
  // delivered between its ticks.
  sim::Round period_ = 1;
  std::vector<sim::Message> pending_inbox_;

  // Stats.
  uint64_t ops_completed_ = 0;
  uint64_t latency_sum_ = 0;
  uint64_t latency_max_ = 0;
  util::Histogram latency_hist_;
  bool dead_ = false;  // Stop after reporting detection.
};

}  // namespace core
}  // namespace tcvs
