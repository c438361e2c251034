#include <gtest/gtest.h>

#include "core/scenario.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {
namespace {

workload::Workload SmallCvsWorkload(uint32_t num_users, uint32_t ops_per_user,
                                    uint64_t seed = 7) {
  workload::CvsWorkloadOptions opts;
  opts.num_users = num_users;
  opts.ops_per_user = ops_per_user;
  opts.num_files = 8;
  opts.mean_think_rounds = 3;
  opts.offline_probability = 0.0;
  opts.seed = seed;
  return workload::MakeCvsWorkload(opts);
}

ScenarioConfig BaseConfig(ProtocolKind protocol, uint32_t num_users) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = num_users;
  config.sync_k = 6;
  config.epoch_rounds = 60;
  config.user_key_height = 7;  // 128 signatures per user: plenty for tests.
  return config;
}

// ---------------------------------------------------------------------------
// Honest server: every protocol completes the workload with no false alarm
// and the ground truth confirms a serial execution.
// ---------------------------------------------------------------------------

class HonestServerTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HonestServerTest, NoFalsePositiveAndAllOpsComplete) {
  ScenarioConfig config = BaseConfig(GetParam(), 4);
  Scenario scenario(config, SmallCvsWorkload(4, 12));
  // 1200 rounds: ample for every protocol to finish the scripts while the
  // token baseline's null records stay within the users' signing budget.
  ScenarioReport report = scenario.Run(1200);
  EXPECT_FALSE(report.detected) << report.detection_reason;
  EXPECT_TRUE(report.all_scripts_done);
  EXPECT_EQ(report.ops_completed, 4u * 12u);
  EXPECT_FALSE(report.ground_truth_deviation);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, HonestServerTest,
    ::testing::Values(ProtocolKind::kPlain, ProtocolKind::kNoExternalComm,
                      ProtocolKind::kTokenBaseline, ProtocolKind::kProtocolI,
                      ProtocolKind::kProtocolII, ProtocolKind::kProtocolIINaive,
                      ProtocolKind::kProtocolIII),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindToString(info.param));
    });

TEST(HonestServerTest, ProtocolIIIHonestManyEpochs) {
  ScenarioConfig config = BaseConfig(ProtocolKind::kProtocolIII, 3);
  config.epoch_rounds = 40;
  workload::EpochWorkloadOptions opts;
  opts.num_users = 3;
  opts.num_epochs = 8;
  opts.epoch_rounds = 40;
  opts.ops_per_epoch = 2;
  Scenario scenario(config, workload::MakeEpochWorkload(opts));
  ScenarioReport report = scenario.Run(8 * 40 + 200);
  EXPECT_FALSE(report.detected) << report.detection_reason;
  EXPECT_TRUE(report.all_scripts_done);
}

TEST(HonestServerTest, NoExternalMessagesWithoutBroadcastProtocols) {
  for (ProtocolKind p : {ProtocolKind::kPlain, ProtocolKind::kNoExternalComm,
                         ProtocolKind::kTokenBaseline,
                         ProtocolKind::kProtocolIII}) {
    ScenarioConfig config = BaseConfig(p, 3);
    Scenario scenario(config, SmallCvsWorkload(3, 8));
    ScenarioReport report = scenario.Run(2000);
    EXPECT_EQ(report.traffic.external_messages, 0u)
        << ProtocolKindToString(p)
        << " claims no external communication but used the broadcast channel";
  }
}

TEST(HonestServerTest, SyncProtocolsUseBroadcastOnlyForSync) {
  ScenarioConfig config = BaseConfig(ProtocolKind::kProtocolII, 3);
  config.sync_k = 4;
  Scenario scenario(config, SmallCvsWorkload(3, 9));
  ScenarioReport report = scenario.Run(2000);
  EXPECT_FALSE(report.detected);
  EXPECT_GT(report.traffic.external_messages, 0u);
  // Sync traffic is bounded: per sync at most 1 announce + n reports, each
  // broadcast to n-1 peers.
  uint64_t syncs_upper = 27 / config.sync_k + 2;
  EXPECT_LE(report.traffic.external_messages, syncs_upper * (1 + 3) * 2);
}

// ---------------------------------------------------------------------------
// Fork / partition attack (paper Figure 1, Theorem 3.1)
// ---------------------------------------------------------------------------

workload::Workload PartitionWorkload() {
  workload::PartitionableOptions opts;
  opts.users_in_a = 2;
  opts.users_in_b = 2;
  opts.prefix_ops_per_user = 3;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 15;
  return workload::MakePartitionableWorkload(opts);
}

ScenarioConfig ForkConfig(ProtocolKind protocol) {
  ScenarioConfig config = BaseConfig(protocol, 4);
  // Split before t1 (round 80) lands, so the fork never contains it; group B
  // is forked off.
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  return config;
}

TEST(ForkAttackTest, GroundTruthDeviates) {
  Scenario scenario(ForkConfig(ProtocolKind::kPlain), PartitionWorkload());
  ScenarioReport report = scenario.Run(1000);
  EXPECT_FALSE(report.detected);
  EXPECT_TRUE(report.ground_truth_deviation);
}

TEST(ForkAttackTest, NoExternalCommNeverDetects) {
  // Theorem 3.1: without external communication, all local checks pass on
  // both sides of the fork forever.
  Scenario scenario(ForkConfig(ProtocolKind::kNoExternalComm),
                    PartitionWorkload());
  ScenarioReport report = scenario.Run(2000);
  EXPECT_FALSE(report.detected);
  EXPECT_TRUE(report.ground_truth_deviation);
  EXPECT_TRUE(report.all_scripts_done);
}

TEST(ForkAttackTest, ProtocolIDetectsAtSync) {
  ScenarioConfig config = ForkConfig(ProtocolKind::kProtocolI);
  Scenario scenario(config, PartitionWorkload());
  ScenarioReport report = scenario.Run(3000);
  ASSERT_TRUE(report.detected) << "fork must be detected";
  // k-bounded deviation detection: detection before any user completes more
  // than k transactions initiated after the deviation. The total ops the
  // server processed after engaging bounds each user's count.
  EXPECT_GT(report.detection_delay_ops, 0u);
}

TEST(ForkAttackTest, ProtocolIIDetectsAtSync) {
  Scenario scenario(ForkConfig(ProtocolKind::kProtocolII), PartitionWorkload());
  ScenarioReport report = scenario.Run(3000);
  ASSERT_TRUE(report.detected);
  EXPECT_NE(report.detection_reason.find("sync"), std::string::npos)
      << report.detection_reason;
}

TEST(ForkAttackTest, UntaggedVariantStillDetectsForks) {
  // The untagged register is weak against replays (Fig. 3), but a fork still
  // leaves ≥3 odd-degree states, so the XOR check fails.
  Scenario scenario(ForkConfig(ProtocolKind::kProtocolIINaive),
                    PartitionWorkload());
  ScenarioReport report = scenario.Run(3000);
  EXPECT_TRUE(report.detected);
}

TEST(ForkAttackTest, TokenBaselineDetectsViaSlotCounter) {
  ScenarioConfig config = ForkConfig(ProtocolKind::kTokenBaseline);
  Scenario scenario(config, PartitionWorkload());
  ScenarioReport report = scenario.Run(2000);
  ASSERT_TRUE(report.detected);
  // Either rigid check can fire first: the counter disagrees with the slot
  // index, or the forked state lacks a legitimate signature chain.
  EXPECT_TRUE(report.detection_reason.find("slot") != std::string::npos ||
              report.detection_reason.find("signature") != std::string::npos)
      << report.detection_reason;
  // The rigid slot order detects within one ring rotation — fast but at the
  // §2.2.3 workload-preservation cost.
  EXPECT_LE(report.detection_delay_rounds,
            config.slot_rounds * config.num_users + 4);
}

TEST(ForkAttackTest, ProtocolIIIDetectsWithinTwoEpochs) {
  ScenarioConfig config = BaseConfig(ProtocolKind::kProtocolIII, 4);
  config.epoch_rounds = 50;
  // Fork at round 120, mid-epoch 2.
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 120, .victims = {3, 4}}};
  workload::EpochWorkloadOptions opts;
  opts.num_users = 4;
  opts.num_epochs = 10;
  opts.epoch_rounds = 50;
  opts.ops_per_epoch = 3;
  Scenario scenario(config, workload::MakeEpochWorkload(opts));
  ScenarioReport report = scenario.Run(10 * 50 + 200);
  ASSERT_TRUE(report.detected) << "fork across epochs must be caught by audit";
  // Theorem 4.3: detection within two epochs of the fault. The fault lands
  // in epoch floor(120/50)=2; its audit runs in epoch 4; allow the audit
  // round-trip itself.
  EXPECT_LE(report.detection_round, (2 + 3) * 50 + 20);
}

// ---------------------------------------------------------------------------
// Tamper / drop (single-user integrity & availability violations)
// ---------------------------------------------------------------------------

// `kind` is kEquivocate (tamper) or kDrop: the first commit at/after round
// 40, by anyone, is altered.
ScenarioConfig OneShotConfig(ProtocolKind protocol, AttackKind kind) {
  ScenarioConfig config = BaseConfig(protocol, 3);
  config.attack.schedule = {
      {.kind = kind, .at = 40, .duration = kForever, .arg = 1}};
  // Detection is only guaranteed at the next sync-up; the workload may run
  // out of steam before any user accumulates k more operations, so schedule
  // one final sync after all activity (the "once in a while" of §1).
  config.forced_syncs = {400};
  return config;
}

class OneShotAttackTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, AttackKind>> {};

TEST_P(OneShotAttackTest, VerifyingProtocolsDetect) {
  auto [protocol, attack] = GetParam();
  ScenarioConfig config = OneShotConfig(protocol, attack);
  Scenario scenario(config, SmallCvsWorkload(3, 12, /*seed=*/21));
  ScenarioReport report = scenario.Run(4000);
  EXPECT_TRUE(report.detected)
      << ProtocolKindToString(protocol) << " failed to detect "
      << AttackKindToString(attack);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OneShotAttackTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kProtocolI,
                                         ProtocolKind::kProtocolII,
                                         ProtocolKind::kTokenBaseline),
                       ::testing::Values(AttackKind::kEquivocate,
                                         AttackKind::kDrop)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, AttackKind>>&
           info) {
      // A one-shot equivocation is the classic single-commit tamper.
      const AttackKind attack = std::get<1>(info.param);
      return std::string(ProtocolKindToString(std::get<0>(info.param))) + "_" +
             (attack == AttackKind::kDrop ? "Drop" : "Tamper");
    });

TEST(OneShotAttackTest, PlainNeverDetectsTamper) {
  ScenarioConfig config =
      OneShotConfig(ProtocolKind::kPlain, AttackKind::kEquivocate);
  Scenario scenario(config, SmallCvsWorkload(3, 12, 21));
  ScenarioReport report = scenario.Run(4000);
  EXPECT_FALSE(report.detected);
}

TEST(OneShotAttackTest, ProtocolIDetectsTamperOnNextOperation) {
  ScenarioConfig config = OneShotConfig(ProtocolKind::kProtocolI,
                                        AttackKind::kEquivocate);
  config.sync_k = 1000;  // Disable syncs: detection must come from signatures.
  Scenario scenario(config, SmallCvsWorkload(3, 12, 21));
  ScenarioReport report = scenario.Run(4000);
  ASSERT_TRUE(report.detected);
  // The signature over the forged state cannot exist; the next transaction
  // by any user exposes it.
  EXPECT_LE(report.detection_delay_ops, 2u);
}

// ---------------------------------------------------------------------------
// Figure-3 replay: the tagging ablation
// ---------------------------------------------------------------------------

TEST(ReplayAttackTest, UntaggedVariantIsFooled) {
  Scenario scenario = MakeReplayScenario(/*naive=*/true);
  ScenarioReport report = scenario.Run(300);
  // The availability violation is real...
  EXPECT_TRUE(report.ground_truth_deviation);
  // ...but the untagged XOR check cancels out and reports success.
  EXPECT_FALSE(report.detected) << report.detection_reason;
}

TEST(ReplayAttackTest, TaggedProtocolIIDetects) {
  Scenario scenario = MakeReplayScenario(/*naive=*/false);
  ScenarioReport report = scenario.Run(300);
  EXPECT_TRUE(report.ground_truth_deviation);
  ASSERT_TRUE(report.detected);
  EXPECT_NE(report.detection_reason.find("sync"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Protocol III specific attacks
// ---------------------------------------------------------------------------

ScenarioConfig P3Config(AttackKind kind, sim::AgentId victim) {
  ScenarioConfig config = BaseConfig(ProtocolKind::kProtocolIII, 3);
  config.epoch_rounds = 50;
  config.attack.schedule = {
      {.kind = kind, .duration = kForever, .victims = {victim}}};
  return config;
}

workload::Workload P3Workload() {
  workload::EpochWorkloadOptions opts;
  opts.num_users = 3;
  opts.num_epochs = 8;
  opts.epoch_rounds = 50;
  opts.ops_per_epoch = 2;
  return workload::MakeEpochWorkload(opts);
}

TEST(ProtocolIIITest, OmittedEpochStateDetected) {
  Scenario scenario(P3Config(AttackKind::kOmitEpochState, 2), P3Workload());
  ScenarioReport report = scenario.Run(8 * 50 + 200);
  ASSERT_TRUE(report.detected);
  EXPECT_NE(report.detection_reason.find("missing"), std::string::npos)
      << report.detection_reason;
}

TEST(ProtocolIIITest, StaleEpochStateDetected) {
  Scenario scenario(P3Config(AttackKind::kStaleEpochState, 2), P3Workload());
  ScenarioReport report = scenario.Run(8 * 50 + 200);
  ASSERT_TRUE(report.detected);
}

// ---------------------------------------------------------------------------
// Workload preservation (paper §2.2.3): back-to-back operations by one user
// must not wait for the whole user ring under Protocols I/II, but do under
// the token-passing baseline.
// ---------------------------------------------------------------------------

TEST(WorkloadPreservationTest, TokenBaselinePenalizesBursts) {
  const uint32_t kUsers = 8;
  const uint32_t kBurst = 6;

  auto run = [&](ProtocolKind protocol) {
    ScenarioConfig config = BaseConfig(protocol, kUsers);
    config.sync_k = 1000;  // Isolate op latency from sync pauses.
    Scenario scenario(config,
                      workload::MakeBurstWorkload(kUsers, 0, kBurst, 4, 5));
    ScenarioReport report = scenario.Run(4000);
    EXPECT_FALSE(report.detected) << ProtocolKindToString(protocol) << ": "
                                  << report.detection_reason;
    EXPECT_TRUE(report.all_scripts_done);
    return report.max_latency_rounds;
  };

  uint64_t token_latency = run(ProtocolKind::kTokenBaseline);
  uint64_t p2_latency = run(ProtocolKind::kProtocolII);
  // The baseline forces each of the burst user's ops to wait a full ring
  // rotation (n slots); Protocol II completes them back-to-back.
  EXPECT_GT(token_latency, p2_latency * 4)
      << "token=" << token_latency << " p2=" << p2_latency;
}

TEST(WorkloadPreservationTest, ProtocolIIFasterThanProtocolIUnderConcurrency) {
  // Protocol I's blocking signature round-trip serializes the server: one
  // operation completes per upload round-trip, regardless of how many users
  // are waiting. Protocol II pipelines them. A single user's burst costs the
  // same under both (the upload rides alongside the next query) — the gap
  // appears exactly when users contend, so load every user at once.
  const uint32_t kUsers = 6;
  const uint32_t kOpsEach = 8;
  auto run = [&](ProtocolKind protocol) {
    ScenarioConfig config = BaseConfig(protocol, kUsers);
    config.sync_k = 1000;
    workload::Workload w;
    for (uint32_t u = 1; u <= kUsers; ++u) {
      workload::UserScript s;
      s.user = u;
      for (uint32_t i = 0; i < kOpsEach; ++i) {
        s.ops.push_back({1, sim::OpKind::kCommit,
                         util::ToBytes("f" + std::to_string(u)),
                         util::ToBytes("v" + std::to_string(i))});
      }
      w.push_back(std::move(s));
    }
    Scenario scenario(config, std::move(w));
    ScenarioReport report = scenario.Run(4000);
    EXPECT_FALSE(report.detected) << report.detection_reason;
    EXPECT_TRUE(report.all_scripts_done);
    return report.avg_latency_rounds;
  };
  double p1 = run(ProtocolKind::kProtocolI);
  double p2 = run(ProtocolKind::kProtocolII);
  EXPECT_GT(p1, 2 * p2) << "p1=" << p1 << " p2=" << p2;
}

// ---------------------------------------------------------------------------
// Detection-delay bound: sweep k (the paper's k-bounded deviation detection)
// ---------------------------------------------------------------------------

class SyncPeriodSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SyncPeriodSweep, ForkDetectedWithinKBound) {
  const uint32_t k = GetParam();
  ScenarioConfig config = BaseConfig(ProtocolKind::kProtocolII, 4);
  config.sync_k = k;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = 50, .victims = {3, 4}}};

  workload::CvsWorkloadOptions opts;
  opts.num_users = 4;
  opts.ops_per_user = 20 + 4 * k;
  opts.num_files = 6;
  opts.mean_think_rounds = 2;
  opts.offline_probability = 0.0;
  opts.seed = 11;
  Scenario scenario(config, workload::MakeCvsWorkload(opts));
  ScenarioReport report = scenario.Run(20000);
  ASSERT_TRUE(report.detected) << "k=" << k;
  // The sync fires when the first user completes k ops since the last sync;
  // no user can get more than k ops past the deviation plus the ops already
  // counted toward the running window. The total server ops after the attack
  // is bounded by n·k plus sync-latency slack.
  EXPECT_LE(report.detection_delay_ops, 4ull * k + 8) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, SyncPeriodSweep, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace core
}  // namespace tcvs
