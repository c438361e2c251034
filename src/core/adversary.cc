#include "core/adversary.h"

#include <algorithm>

namespace tcvs {
namespace core {

namespace {

// Whether `step`'s window covers `now` and it targets `user` (empty victims
// = everyone; std::nullopt = any user). Written as `now - at` so a kForever
// window cannot overflow.
bool Covers(const AttackStep& step, uint64_t now,
            std::optional<uint32_t> user) {
  if (now < step.at || now - step.at > step.duration) return false;
  return !user.has_value() || step.victims.empty() ||
         step.victims.count(*user) > 0;
}

}  // namespace

Adversary::Adversary(std::vector<AttackStep> schedule, Branch main)
    : schedule_(std::move(schedule)),
      fired_(schedule_.size(), false),
      altered_(schedule_.size(), 0),
      main_(std::move(main)) {}

bool Adversary::Has(AttackKind kind) const {
  return std::any_of(schedule_.begin(), schedule_.end(),
                     [kind](const AttackStep& s) { return s.kind == kind; });
}

void Adversary::MarkEngaged(uint64_t now) {
  if (engaged_at_ == 0) engaged_at_ = now;
}

void Adversary::Activate(uint64_t now) {
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const AttackStep& step = schedule_[i];
    if (fired_[i] || now < step.at) continue;
    switch (step.kind) {
      case AttackKind::kFork:
        // Split at the step's time, not at first use, so transactions landing
        // on the main branch afterwards are invisible to the victims (the
        // Figure-1 attack needs t1 ∉ fork).
        if (!fork_.has_value()) fork_.emplace(main_.Clone());
        forked_.insert(step.victims.begin(), step.victims.end());
        break;
      case AttackKind::kRollback: {
        // Nothing to resurrect yet: stay armed until history exists.
        if (rollback_log_.empty()) continue;
        const size_t depth = std::min<size_t>(
            std::max<uint64_t>(step.arg, 1), rollback_log_.size());
        const auto resurrected = rollback_log_.end() - depth;
        main_ = std::move(*resurrected);
        rollback_log_.erase(resurrected, rollback_log_.end());
        MarkEngaged(now);
        break;
      }
      case AttackKind::kReplaySegment:
        // Victims are served the recorded pre-states as their operations
        // arrive (Route).
        replaying_ = true;
        replay_cursor_ = std::min<size_t>(step.arg, history_.size());
        break;
      default:
        break;  // Windowed kinds match per operation (Active, Alter).
    }
    fired_[i] = true;
  }
}

Serving Adversary::Route(uint64_t now, uint32_t user) {
  const bool replay_victim = std::any_of(
      schedule_.begin(), schedule_.end(), [user](const AttackStep& s) {
        return s.kind == AttackKind::kReplaySegment &&
               s.victims.count(user) > 0;
      });
  if (replaying_ && replay_victim && replay_cursor_ < history_.size()) {
    MarkEngaged(now);
    replayed_.emplace(history_[replay_cursor_++].Clone());
    return Serving{&*replayed_};
  }
  if (fork_.has_value() && forked_.count(user) > 0) {
    MarkEngaged(now);
    return Serving{&*fork_};
  }
  // Record the main branch's pre-state: honest transitions of non-victims
  // feed the replay, and a bounded log feeds the rollback.
  if (!replay_victim && Has(AttackKind::kReplaySegment)) {
    history_.push_back(main_.Clone());
  }
  if (Has(AttackKind::kRollback)) {
    if (rollback_log_.size() == kMaxRollbackLog) {
      rollback_log_.erase(rollback_log_.begin());
    }
    rollback_log_.push_back(main_.Clone());
  }
  return Serving{&main_};
}

void Adversary::Alter(uint64_t now, uint32_t user, Serving* serving) {
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const AttackStep& step = schedule_[i];
    bool* lie = step.kind == AttackKind::kEquivocate ? &serving->tamper
                : step.kind == AttackKind::kDrop     ? &serving->drop
                                                     : nullptr;
    if (lie == nullptr || *lie || !Covers(step, now, user)) continue;
    if (step.arg != 0 && altered_[i] >= step.arg) continue;
    ++altered_[i];
    *lie = true;
    MarkEngaged(now);
  }
}

const AttackStep* Adversary::Active(AttackKind kind, uint64_t now,
                                    std::optional<uint32_t> user) const {
  for (const AttackStep& step : schedule_) {
    if (step.kind == kind && Covers(step, now, user)) return &step;
  }
  return nullptr;
}

}  // namespace core
}  // namespace tcvs
