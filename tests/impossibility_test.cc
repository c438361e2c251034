// An executable rendering of Theorem 3.1's indistinguishability argument.
//
// The theorem: without external communication, no protocol permits
// unboundedly partitionable workloads AND guarantees k-bounded deviation
// detection. The proof idea is indistinguishability: in the partition attack
// run r, every user's local state evolves exactly as it does in some HONEST
// run (rA for group A, rB for group B) — an agent "knows" a fact only if it
// holds at all points with the same local state (§2.1), so no user can know
// the server deviated.
//
// We realize that argument concretely for the strongest no-communication
// client we have (full per-operation verification, counter monotonicity,
// σ/last registers — ProtocolKind::kNoExternalComm):
//
//   * run rA: honest server, only group A's operations exist;
//   * run rB: honest server, only group B's operations exist;
//   * run r : the forking server serves A the rA history and B the rB
//     history, with a shared prefix.
//
// After the runs, every A user's registers in r equal its registers in rA,
// and every B user's in r equal those in rB — bit for bit. Detection would
// require some user's local state to differ somewhere; it never does.

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {
namespace {

// A partitionable workload with a common prefix handled entirely by group A
// before round 40, then disjoint activity.
workload::Workload GroupWorkload(bool include_a, bool include_b) {
  workload::Workload w;
  auto commit = [](sim::Round round, const char* key, const char* value) {
    return workload::ScheduledOp{round, sim::OpKind::kCommit,
                                 util::ToBytes(key), util::ToBytes(value)};
  };
  // Group A: users 1, 2.
  if (include_a) {
    workload::UserScript u1;
    u1.user = 1;
    u1.ops = {commit(2, "a1.c", "A1"), commit(10, "shared.h", "v1"),
              commit(60, "a2.c", "A2")};
    w.push_back(std::move(u1));
    workload::UserScript u2;
    u2.user = 2;
    u2.ops = {commit(6, "a3.c", "A3"), commit(66, "a4.c", "A4")};
    w.push_back(std::move(u2));
  }
  // Group B: users 3, 4 — active only after the fork round (50).
  if (include_b) {
    workload::UserScript u3;
    u3.user = 3;
    u3.ops = {commit(70, "b1.c", "B1"), commit(76, "b2.c", "B2"),
              commit(82, "b3.c", "B3")};
    w.push_back(std::move(u3));
    workload::UserScript u4;
    u4.user = 4;
    u4.ops = {commit(72, "b4.c", "B4"), commit(90, "b5.c", "B5")};
    w.push_back(std::move(u4));
  }
  return w;
}

struct Registers {
  Bytes sigma;
  Bytes last;
  uint64_t gctr;
  uint64_t lctr;
  bool operator==(const Registers&) const = default;
};

Registers Capture(Scenario* scenario, sim::AgentId id) {
  ProtocolUser* user = scenario->user(id);
  return Registers{user->sigma(), user->last(), user->gctr(), user->lctr()};
}

TEST(Theorem31Test, PartitionedUsersAreBitForBitIndistinguishable) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kNoExternalComm;
  config.num_users = 4;

  // Run rA: honest server; only group A operates. (Group B agents exist but
  // sleep — exactly the paper's "no user in B issues transactions".)
  Scenario run_a(config, GroupWorkload(true, false));
  ScenarioReport ra = run_a.Run(300);
  ASSERT_FALSE(ra.detected);

  // Run rB: honest server; group A provides only the shared prefix (before
  // the fork point) and then sleeps; group B operates.
  workload::Workload wb = GroupWorkload(true, true);
  for (auto& script : wb) {
    if (script.user <= 2) {
      // Drop group A's post-fork ops: in rB they never happen.
      std::erase_if(script.ops, [](const workload::ScheduledOp& op) {
        return op.earliest_round >= 50;
      });
    }
  }
  Scenario run_b(config, std::move(wb));
  ScenarioReport rb = run_b.Run(300);
  ASSERT_FALSE(rb.detected);

  // Run r: the attack. The server forks at round 50; group B (users 3,4) is
  // served the fork, group A stays on the main branch.
  ScenarioConfig attack_config = config;
  attack_config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 50, .victims = {3, 4}}};
  Scenario run_r(attack_config, GroupWorkload(true, true));
  ScenarioReport rr = run_r.Run(300);

  // The deviation is real...
  EXPECT_TRUE(rr.ground_truth_deviation);
  // ...and undetected...
  EXPECT_FALSE(rr.detected);
  // ...because every user's entire protocol-visible state is identical to
  // its state in an honest run:
  for (sim::AgentId a : {1u, 2u}) {
    EXPECT_EQ(Capture(&run_r, a), Capture(&run_a, a)) << "A user " << a;
  }
  for (sim::AgentId b : {3u, 4u}) {
    EXPECT_EQ(Capture(&run_r, b), Capture(&run_b, b)) << "B user " << b;
  }
}

TEST(Theorem31Test, ExternalCommunicationBreaksTheIndistinguishability) {
  // The same attack run under Protocol II: the sync-up imports OTHER users'
  // registers into each user's view, the indistinguishability argument
  // collapses, and detection follows.
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 3;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 50, .victims = {3, 4}}};
  Scenario run(config, GroupWorkload(true, true));
  ScenarioReport r = run.Run(1000);
  EXPECT_TRUE(r.detected);
}

}  // namespace
}  // namespace core
}  // namespace tcvs
