// Tests for the three future-work extensions the paper names in §6:
//  (1) localizing exactly when the fault occurred (core/forensics),
//  (2) sync-up with constant per-client work (SyncMode::kAggregationTree),
//  (plus) rollback bounding via sync checkpoints.

#include <gtest/gtest.h>

#include "core/forensics.h"
#include "core/scenario.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// Fault localization (forensics)
// ---------------------------------------------------------------------------

Bytes Fp(int tag) {
  Bytes b(32, 0);
  b[0] = static_cast<uint8_t>(tag);
  return b;
}

TransitionRecord T(uint64_t ctr, int pre, int post, uint32_t claimed,
                   uint32_t user) {
  return TransitionRecord{Fp(pre), Fp(post), ctr, claimed, user};
}

TEST(ForensicsTest, ConsistentChainHasNoFault) {
  std::vector<TransitionRecord> j = {
      T(0, 0, 1, 0, 1), T(1, 1, 2, 1, 2), T(2, 2, 3, 2, 1)};
  EXPECT_FALSE(LocalizeFault(j).has_value());
}

TEST(ForensicsTest, EmptyJournalHasNoFault) {
  EXPECT_FALSE(LocalizeFault({}).has_value());
}

TEST(ForensicsTest, DuplicateCounterLocalized) {
  std::vector<TransitionRecord> j = {
      T(0, 0, 1, 0, 1), T(1, 1, 2, 1, 2), T(1, 1, 7, 1, 3), T(2, 2, 3, 2, 1)};
  auto fault = LocalizeFault(j);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->first_bad_ctr, 1u);
  EXPECT_NE(fault->explanation.find("fork or replay"), std::string::npos);
}

TEST(ForensicsTest, IdenticalDuplicateRecordsAreBenign) {
  // Two users journaling the SAME transition (cannot happen in our agents,
  // but the analysis must not flag exact duplicates as forks).
  std::vector<TransitionRecord> j = {T(0, 0, 1, 0, 1), T(0, 0, 1, 0, 1)};
  EXPECT_FALSE(LocalizeFault(j).has_value());
}

TEST(ForensicsTest, ChainBreakLocalized) {
  std::vector<TransitionRecord> j = {
      T(0, 0, 1, 0, 1), T(1, 9, 2, 1, 2)};  // Pre of ctr1 ≠ post of ctr0.
  auto fault = LocalizeFault(j);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->first_bad_ctr, 1u);
  EXPECT_NE(fault->explanation.find("tampered or dropped"), std::string::npos);
}

TEST(ForensicsTest, CreatorMismatchLocalized) {
  std::vector<TransitionRecord> j = {
      T(0, 0, 1, 0, 1), T(1, 1, 2, /*claimed=*/9, 2)};  // ctr0 done by user 1.
  auto fault = LocalizeFault(j);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->first_bad_ctr, 1u);
}

TEST(ForensicsTest, EarliestFaultWins) {
  std::vector<TransitionRecord> j = {
      T(0, 0, 1, 0, 1), T(1, 9, 2, 1, 2),  // Fault at 1.
      T(2, 2, 3, 2, 3), T(2, 2, 8, 2, 4),  // Fault at 2.
  };
  auto fault = LocalizeFault(j);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->first_bad_ctr, 1u);
}

TEST(ForensicsTest, GapsInJournalAreTolerated) {
  // Bounded ring buffers drop old entries; non-adjacent counters cannot be
  // chain-checked and must not produce false faults.
  std::vector<TransitionRecord> j = {T(0, 0, 1, 0, 1), T(5, 7, 8, 3, 2)};
  EXPECT_FALSE(LocalizeFault(j).has_value());
}

// ---------------------------------------------------------------------------
// Journal-carrying sync: detection reasons name the faulty counter
// ---------------------------------------------------------------------------

TEST(JournalSyncTest, TamperLocalizedAtSync) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 3;
  config.sync_k = 8;
  config.journal_len = 64;  // ≥ per-user ops: exact localization.
  // One-shot tamper: the first commit at/after round 40 is altered.
  config.attack.schedule = {{.kind = AttackKind::kEquivocate,
                              .at = 40,
                              .duration = kForever,
                              .arg = 1}};
  config.forced_syncs = {400};

  workload::CvsWorkloadOptions opts;
  opts.num_users = 3;
  opts.ops_per_user = 15;
  opts.offline_probability = 0.0;
  opts.seed = 21;
  Scenario scenario(config, workload::MakeCvsWorkload(opts));
  ScenarioReport r = scenario.Run(2000);
  ASSERT_TRUE(r.detected);
  EXPECT_NE(r.detection_reason.find("first fault at counter"), std::string::npos)
      << r.detection_reason;
  EXPECT_NE(r.detection_reason.find("tampered or dropped"), std::string::npos)
      << r.detection_reason;
}

TEST(JournalSyncTest, ForkLocalizedAsForkOrReplay) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 6;
  config.journal_len = 64;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};

  workload::PartitionableOptions opts;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 15;
  Scenario scenario(config, workload::MakePartitionableWorkload(opts));
  ScenarioReport r = scenario.Run(3000);
  ASSERT_TRUE(r.detected);
  EXPECT_NE(r.detection_reason.find("fork or replay"), std::string::npos)
      << r.detection_reason;
}

TEST(JournalSyncTest, HonestRunsStayCleanWithJournals) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 5;
  config.journal_len = 16;
  Scenario scenario(config, workload::MakeCvsWorkload({.num_users = 4,
                                                       .ops_per_user = 15,
                                                       .offline_probability = 0,
                                                       .seed = 5}));
  ScenarioReport r = scenario.Run(2000);
  EXPECT_FALSE(r.detected) << r.detection_reason;
  EXPECT_TRUE(r.all_scripts_done);
}

// ---------------------------------------------------------------------------
// Aggregation-tree sync
// ---------------------------------------------------------------------------

ScenarioConfig TreeConfig(ProtocolKind protocol, uint32_t n, uint32_t k) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = n;
  config.sync_k = k;
  config.sync_mode = SyncMode::kAggregationTree;
  config.user_key_height = 7;
  return config;
}

workload::Workload TreeWorkload(uint32_t n, uint32_t ops, uint64_t seed) {
  workload::CvsWorkloadOptions opts;
  opts.num_users = n;
  opts.ops_per_user = ops;
  opts.offline_probability = 0.0;
  opts.mean_think_rounds = 3;
  opts.seed = seed;
  return workload::MakeCvsWorkload(opts);
}

class TreeSyncProtocolTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TreeSyncProtocolTest, HonestNoFalsePositive) {
  Scenario scenario(TreeConfig(GetParam(), 5, 6), TreeWorkload(5, 12, 31));
  ScenarioReport r = scenario.Run(3000);
  EXPECT_FALSE(r.detected) << r.detection_reason;
  EXPECT_TRUE(r.all_scripts_done);
}

TEST_P(TreeSyncProtocolTest, ForkDetected) {
  ScenarioConfig config = TreeConfig(GetParam(), 4, 6);
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  workload::PartitionableOptions opts;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 20;
  Scenario scenario(config, workload::MakePartitionableWorkload(opts));
  ScenarioReport r = scenario.Run(5000);
  ASSERT_TRUE(r.detected);
  EXPECT_NE(r.detection_reason.find("aggregation"), std::string::npos)
      << r.detection_reason;
}

INSTANTIATE_TEST_SUITE_P(Protocols, TreeSyncProtocolTest,
                         ::testing::Values(ProtocolKind::kProtocolI,
                                           ProtocolKind::kProtocolII),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return std::string(ProtocolKindToString(info.param));
                         });

TEST(TreeSyncTest, TrafficScalesLinearlyNotQuadratically) {
  auto external_msgs = [&](SyncMode mode, uint32_t n) {
    ScenarioConfig config = TreeConfig(ProtocolKind::kProtocolII, n, 6);
    config.sync_mode = mode;
    Scenario scenario(config, TreeWorkload(n, 12, 77));
    ScenarioReport r = scenario.Run(4000);
    EXPECT_FALSE(r.detected) << r.detection_reason;
    return r.traffic.external_messages;
  };
  uint64_t tree16 = external_msgs(SyncMode::kAggregationTree, 16);
  uint64_t bcast16 = external_msgs(SyncMode::kBroadcast, 16);
  // Broadcast costs ~n²−1 per sync; the tree ~4n. At n=16 the gap is ~4x+.
  EXPECT_LT(tree16 * 3, bcast16) << "tree=" << tree16 << " bcast=" << bcast16;
}

TEST(TreeSyncTest, SingleUserDegenerateTree) {
  Scenario scenario(TreeConfig(ProtocolKind::kProtocolII, 1, 3),
                    TreeWorkload(1, 10, 3));
  ScenarioReport r = scenario.Run(1500);
  EXPECT_FALSE(r.detected) << r.detection_reason;
  EXPECT_TRUE(r.all_scripts_done);
}

// ---------------------------------------------------------------------------
// Message-delay robustness: the paper only assumes bounded delivery, so the
// protocols must keep working (and keep detecting) at delays > 1 round.
// ---------------------------------------------------------------------------

class MessageDelayTest : public ::testing::TestWithParam<sim::Round> {};

TEST_P(MessageDelayTest, HonestRunsCompleteUnderDelay) {
  for (ProtocolKind p : {ProtocolKind::kProtocolI, ProtocolKind::kProtocolII,
                         ProtocolKind::kProtocolIII}) {
    ScenarioConfig config;
    config.protocol = p;
    config.num_users = 3;
    config.sync_k = 6;
    config.epoch_rounds = 60;
    config.user_key_height = 7;
    Scenario scenario(config, TreeWorkload(3, 10, 41));
    scenario.kernel()->set_message_delay(GetParam());
    ScenarioReport r = scenario.Run(4000);
    EXPECT_FALSE(r.detected)
        << ProtocolKindToString(p) << " delay=" << GetParam() << ": "
        << r.detection_reason;
    EXPECT_TRUE(r.all_scripts_done) << ProtocolKindToString(p);
  }
}

TEST_P(MessageDelayTest, ForkStillDetectedUnderDelay) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 6;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  workload::PartitionableOptions opts;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 20;
  Scenario scenario(config, workload::MakePartitionableWorkload(opts));
  scenario.kernel()->set_message_delay(GetParam());
  ScenarioReport r = scenario.Run(8000);
  EXPECT_TRUE(r.detected);
}

INSTANTIATE_TEST_SUITE_P(Delays, MessageDelayTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// p-partial synchrony: slow users must not break safety or liveness.
// ---------------------------------------------------------------------------

TEST(PartialSynchronyTest, SlowUsersCompleteHonestRuns) {
  for (ProtocolKind p : {ProtocolKind::kProtocolII, ProtocolKind::kProtocolI}) {
    ScenarioConfig config;
    config.protocol = p;
    config.num_users = 4;
    config.sync_k = 6;
    config.user_key_height = 7;
    config.partial_sync_p = 4;
    config.user_periods = {{2, 3}, {4, 4}};  // Users 2 and 4 tick slowly.
    Scenario scenario(config, TreeWorkload(4, 10, 61));
    ScenarioReport r = scenario.Run(8000);
    EXPECT_FALSE(r.detected) << ProtocolKindToString(p) << ": "
                             << r.detection_reason;
    EXPECT_TRUE(r.all_scripts_done) << ProtocolKindToString(p);
  }
}

TEST(PartialSynchronyTest, SlowUsersStillDetectForks) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 6;
  config.partial_sync_p = 3;
  config.user_periods = {{1, 2}, {3, 3}};
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  workload::PartitionableOptions opts;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 20;
  Scenario scenario(config, workload::MakePartitionableWorkload(opts));
  ScenarioReport r = scenario.Run(10000);
  EXPECT_TRUE(r.detected);
}

// ---------------------------------------------------------------------------
// b*-bounded transaction time: liveness against a stalling server.
// ---------------------------------------------------------------------------

TEST(BoundedTransactionTest, StallingServerDetected) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 3;
  config.sync_k = 100;
  config.b_star = 20;
  config.attack.schedule = {
      {.kind = AttackKind::kStall, .at = 50, .duration = kForever}};
  Scenario scenario(config, TreeWorkload(3, 20, 71));
  ScenarioReport r = scenario.Run(3000);
  ASSERT_TRUE(r.detected);
  EXPECT_NE(r.detection_reason.find("b*"), std::string::npos)
      << r.detection_reason;
  // Detection within b* + one think-time of the stall.
  EXPECT_LE(r.detection_round, 50 + 20 + 30);
}

TEST(BoundedTransactionTest, HonestServerNeverTripsLiveness) {
  for (ProtocolKind p : {ProtocolKind::kProtocolII, ProtocolKind::kProtocolI}) {
    ScenarioConfig config;
    config.protocol = p;
    config.num_users = 4;
    config.sync_k = 5;
    config.user_key_height = 7;
    // Generous bound: Protocol I queues concurrent queries behind the
    // signature round-trip, so outstanding time grows with the user count.
    config.b_star = 100;
    Scenario scenario(config, TreeWorkload(4, 12, 81));
    ScenarioReport r = scenario.Run(4000);
    EXPECT_FALSE(r.detected) << ProtocolKindToString(p) << ": "
                             << r.detection_reason;
  }
}

// ---------------------------------------------------------------------------
// Rollback bounding
// ---------------------------------------------------------------------------

TEST(RollbackTest, BoundedByOpsSinceLastSync) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 5;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  workload::PartitionableOptions opts;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 30;
  Scenario scenario(config, workload::MakePartitionableWorkload(opts));
  ScenarioReport r = scenario.Run(5000);
  ASSERT_TRUE(r.detected);
  // At most n·k ops can sit between two syncs, plus in-flight slack; the
  // rollback window must respect that bound.
  EXPECT_LE(r.rollback_ops, 4ull * 5 + 8);
  EXPECT_GT(r.rollback_ops, 0u);
}

TEST(RollbackTest, CheckpointAdvancesAcrossSyncs) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolII;
  config.num_users = 3;
  config.sync_k = 4;
  Scenario scenario(config, TreeWorkload(3, 16, 13));
  ScenarioReport r = scenario.Run(2000);
  EXPECT_FALSE(r.detected);
  // 48 ops with a sync every ~4 ops: the final checkpoint sits near the end,
  // so the unverified suffix is small.
  EXPECT_LE(r.rollback_ops, 3ull * 4 + 8);
}

}  // namespace
}  // namespace core
}  // namespace tcvs
