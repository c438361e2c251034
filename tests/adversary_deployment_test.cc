// The campaign's adversary against the deployed client. AdversarialServer is
// a cvs::ServerApi over core::Adversary whose clock is the transaction
// index; it executes every transaction with UntrustedServer's own body on
// the branch the adversary picks. Generated schedules then run through
// cvs::VerifyingClient and VerifyingClient::SyncUp, and each run must keep
// the campaign's invariants: an engaged deviation is detected within
// DetectionBound(n, k) operations (or the workload ended first), the alarm
// never precedes the attack, it leaves digest-pair evidence in the audit
// log, and delay-only schedules never flag.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adversary.h"
#include "cvs/trusted.h"
#include "sim/campaign.h"
#include "util/audit.h"

namespace tcvs {
namespace {

class AdversarialServer : public cvs::ServerApi {
 public:
  explicit AdversarialServer(std::vector<core::AttackStep> schedule)
      : adversary_(std::move(schedule), core::Branch(mtree::TreeParams{})) {}

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    const uint64_t now = Tick();
    core::Serving serving = adversary_.Route(now, user);
    const bool commits =
        std::any_of(ops.begin(), ops.end(), [](const cvs::FileOp& op) {
          return op.kind == cvs::FileOp::Kind::kCommit;
        });
    if (commits && cvs::UntrustedServer::Applies(serving.branch->tree, ops)) {
      adversary_.Alter(now, user, &serving);
    }
    return cvs::UntrustedServer::Execute(serving, user, ops);
  }

  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    const uint64_t now = Tick();
    return cvs::UntrustedServer::ExecuteList(adversary_.Route(now, user).branch,
                                             user, prefix);
  }

  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t) override {
    return Status::Unimplemented("the adversarial server keeps no log");
  }

  mtree::TreeParams tree_params() const override { return mtree::TreeParams{}; }

  /// Transactions executed so far; the n-th transaction ran at time n.
  uint64_t transactions() const { return now_; }
  /// Transaction at which the attack first altered processing (0 = never).
  uint64_t engaged_at() const { return adversary_.engaged_at(); }

 private:
  uint64_t Tick() {
    adversary_.Activate(++now_);
    return now_;
  }

  core::Adversary adversary_;
  uint64_t now_ = 0;
};

struct DeployedOutcome {
  bool engaged = false;
  bool detected = false;
  /// Transactions from the engaging one through detection (or the end).
  uint64_t delay_ops = 0;
  /// First broken invariant; empty when all held.
  std::string violation;
};

bool ForkEvidenceSince(uint64_t cursor) {
  for (const util::AuditEvent& ev :
       util::AuditLog::Instance().SnapshotSince(cursor)) {
    if ((ev.kind == util::AuditEventKind::kForkDetected ||
         ev.kind == util::AuditEventKind::kVoMismatch) &&
        !ev.expected_digest.empty() && !ev.actual_digest.empty()) {
      return true;
    }
  }
  return false;
}

// Runs the schedule's own workload through one VerifyingClient per user, in
// issue order. Every user's k-th transaction since the last sync-up triggers
// a SyncUp over all clients. Stops at the first detection.
DeployedOutcome RunDeployed(const campaign::CampaignSchedule& schedule) {
  const uint64_t cursor = util::AuditLog::Instance().total_emitted();
  AdversarialServer server(schedule.steps);
  std::vector<std::unique_ptr<cvs::VerifyingClient>> owned;
  std::vector<cvs::VerifyingClient*> clients;
  for (uint32_t u = 1; u <= schedule.num_users; ++u) {
    owned.push_back(std::make_unique<cvs::VerifyingClient>(u, &server));
    clients.push_back(owned.back().get());
  }

  struct Issue {
    sim::Round at;
    uint32_t user;
    const workload::ScheduledOp* op;
  };
  const workload::Workload workload = schedule.MakeWorkload();
  std::vector<Issue> order;
  for (const workload::UserScript& script : workload) {
    for (const workload::ScheduledOp& op : script.ops) {
      order.push_back({op.earliest_round, script.user, &op});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Issue& a, const Issue& b) {
                     return std::tie(a.at, a.user) < std::tie(b.at, b.user);
                   });

  DeployedOutcome out;
  // Each user commits against the revision it last verified.
  std::map<std::pair<uint32_t, std::string>, uint64_t> known_rev;
  std::vector<uint32_t> since_sync(schedule.num_users + 1, 0);
  Status alarm;
  // One verified transaction by `user`; `st` is its outcome. Authenticated
  // absence and conflicts are verified answers, not alarms. Every user's
  // k-th transaction since the last sync-up triggers one.
  auto done = [&](uint32_t user, Status st) {
    if (st.IsNotFound() || st.IsFailedPrecondition() || st.IsAlreadyExists()) {
      st = Status::OK();
    }
    if (st.ok() && ++since_sync[user] >= schedule.sync_k) {
      std::fill(since_sync.begin(), since_sync.end(), 0);
      st = cvs::VerifyingClient::SyncUp(clients);
    }
    if (!st.ok()) alarm = st;
    return st.ok();
  };
  for (const Issue& issue : order) {
    cvs::VerifyingClient* client = clients[issue.user - 1];
    const std::string path = util::ToString(issue.op->key);
    uint64_t& rev = known_rev[{issue.user, path}];
    auto checkout = [&] {
      auto record = client->Checkout(path);
      rev = record.ok() ? record->revision : 0;
      return done(issue.user, record.status());
    };
    bool ok = true;
    switch (issue.op->kind) {
      case sim::OpKind::kCheckout:
        ok = checkout();
        break;
      case sim::OpKind::kCommit: {
        // A stale base is rejected: update (check out) and commit again.
        const std::string content = util::ToString(issue.op->value);
        bool stale = false;
        auto commit = [&] {
          auto next = client->Commit(path, content, rev);
          stale = next.status().IsFailedPrecondition() ||
                  next.status().IsAlreadyExists();
          if (next.ok()) rev = *next;
          return done(issue.user, next.status());
        };
        ok = commit();
        if (ok && stale) ok = checkout() && commit();
        break;
      }
      case sim::OpKind::kDelete: {
        const Status st = client->Remove(path);
        if (st.ok()) rev = 0;
        ok = done(issue.user, st);
        break;
      }
    }
    if (!ok) break;
  }

  out.engaged = server.engaged_at() != 0;
  out.detected = !alarm.ok();
  out.delay_ops =
      out.engaged ? server.transactions() - server.engaged_at() + 1 : 0;
  const uint64_t bound =
      campaign::DetectionBound(schedule.num_users, schedule.sync_k);
  if (out.detected) {
    if (!alarm.IsDeviationDetected()) {
      out.violation = "alarm is not a deviation: " + alarm.ToString();
    } else if (!out.engaged) {
      out.violation =
          "false alarm before any step engaged: " + alarm.ToString();
    } else if (out.delay_ops > bound) {
      out.violation = "detected after " + std::to_string(out.delay_ops) +
                      " ops, bound " + std::to_string(bound);
    } else if (!ForkEvidenceSince(cursor)) {
      out.violation = "detection without digest-pair evidence: " +
                      alarm.ToString();
    }
  } else if (out.engaged && out.delay_ops > bound) {
    out.violation = "escape: " + std::to_string(out.delay_ops) +
                    " ops after the attack engaged, bound " +
                    std::to_string(bound);
  }
  return out;
}

TEST(AdversaryDeploymentTest, GeneratedSchedulesAreDetectedWithinBound) {
  uint32_t engaged = 0, detected = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const campaign::CampaignSchedule schedule =
        campaign::GenerateSchedule(seed);
    const DeployedOutcome out = RunDeployed(schedule);
    EXPECT_TRUE(out.violation.empty())
        << "seed " << seed << " (" << schedule.Describe()
        << "): " << out.violation;
    engaged += out.engaged;
    detected += out.detected;
  }
  // The arm must actually exercise detection to mean anything.
  EXPECT_GE(engaged, 120u);
  EXPECT_GE(detected, engaged * 9 / 10);
}

TEST(AdversaryDeploymentTest, DelayOnlySchedulesNeverFlag) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const campaign::CampaignSchedule schedule =
        campaign::GenerateSchedule(seed, /*honest=*/true);
    ASSERT_TRUE(schedule.IsHonest());
    const DeployedOutcome out = RunDeployed(schedule);
    EXPECT_FALSE(out.engaged) << "seed " << seed;
    EXPECT_FALSE(out.detected) << "seed " << seed << ": " << out.violation;
  }
}

TEST(AdversaryDeploymentTest, EachDeviatingKindIsDetectedOnTheClient) {
  // One step of each deviating kind, engaging at the 20th transaction.
  for (core::AttackKind kind :
       {core::AttackKind::kFork, core::AttackKind::kRollback,
        core::AttackKind::kReplaySegment, core::AttackKind::kEquivocate,
        core::AttackKind::kDrop}) {
    campaign::CampaignSchedule schedule;
    schedule.seed = 7;
    schedule.num_users = 4;
    schedule.sync_k = 4;
    schedule.ops_per_user = 20;
    core::AttackStep step{.kind = kind, .at = 20, .duration = 30};
    step.victims = {2};
    if (kind == core::AttackKind::kRollback) {
      step.victims.clear();
      step.arg = 2;
    }
    schedule.steps = {step};
    const DeployedOutcome out = RunDeployed(schedule);
    EXPECT_TRUE(out.engaged) << schedule.Describe();
    EXPECT_TRUE(out.detected) << schedule.Describe();
    EXPECT_TRUE(out.violation.empty())
        << schedule.Describe() << ": " << out.violation;
  }
}

}  // namespace
}  // namespace tcvs
