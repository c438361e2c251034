#pragma once

#include <optional>
#include <set>
#include <vector>

#include "core/config.h"
#include "core/protocol_core.h"

namespace tcvs {
namespace core {

/// \brief The malicious server's strategy over its branches, independent of
/// transport and clock: it runs an AttackConfig schedule. The caller passes
/// `now` — the round in the simulator (ProtocolServer), the transaction
/// index in a deployment — and executes each operation on the branch Route
/// picks. With an empty schedule it is the honest server: one branch, never
/// altered.
class Adversary {
 public:
  Adversary(std::vector<AttackStep> schedule, Branch main);

  /// Fires the one-shot steps due at `now`: the fork split, the rollback,
  /// and the arming of the replay cursor.
  void Activate(uint64_t now);

  /// Picks the branch that serves `user`'s operation at `now` and records
  /// the main branch's pre-state when a replay or rollback step needs it.
  /// The branch is owned by the Adversary and valid until its next call.
  Serving Route(uint64_t now, uint32_t user);

  /// Decides whether the commit being served is tampered with or dropped,
  /// counting it against the step's `arg` cap. Call only for commits that
  /// change the database.
  void Alter(uint64_t now, uint32_t user, Serving* serving);

  /// First step of `kind` whose window covers `now` and targets `user`
  /// (std::nullopt: any user); nullptr when none is active.
  const AttackStep* Active(AttackKind kind, uint64_t now,
                           std::optional<uint32_t> user) const;

  /// Records that the attack altered processing at `now`.
  void MarkEngaged(uint64_t now);

  /// First time the attack altered processing (0 = never).
  uint64_t engaged_at() const { return engaged_at_; }
  bool engaged() const { return engaged_at_ != 0; }

  Branch& main() { return main_; }
  /// The forked branch; nullptr before the first kFork step fires.
  Branch* fork() { return fork_.has_value() ? &*fork_ : nullptr; }

 private:
  /// Rollback snapshots are bounded so soak campaigns stay O(1) in history.
  static constexpr size_t kMaxRollbackLog = 128;

  bool Has(AttackKind kind) const;

  std::vector<AttackStep> schedule_;
  std::vector<bool> fired_;         // One-shot steps that already fired.
  std::vector<uint64_t> altered_;   // Commits each step altered so far.
  Branch main_;
  std::optional<Branch> fork_;
  std::set<uint32_t> forked_;       // Victims of every fired kFork step.
  std::vector<Branch> history_;     // Main-branch pre-states for replay.
  size_t replay_cursor_ = 0;
  bool replaying_ = false;
  std::optional<Branch> replayed_;  // The pre-state a replayed op runs on.
  std::vector<Branch> rollback_log_;
  uint64_t engaged_at_ = 0;
};

}  // namespace core
}  // namespace tcvs
