// Golden pins of the adversary's observable behaviour. Each group runs a
// fixed set of attack scenarios and hashes, to one SHA-256, every report
// field a change to the server could move: detection round, detector and
// reason, the round the attack engaged, operations after it, traffic, and
// ground truth. A refactor of how attacks are described or executed must
// leave every constant below unchanged; a mismatch prints the new digest.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "crypto/sha256.h"
#include "sim/campaign.h"
#include "util/bytes.h"
#include "util/random.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {
namespace {

// Accumulates one line per scenario; Digest() is the group's pin.
class Pin {
 public:
  void Add(Scenario& scenario, const ScenarioReport& r) {
    out_ << r.detected << "|" << r.detection_round << "|" << r.detector << "|"
         << r.detection_reason << "|" << r.attack_engaged_round << "|"
         << r.detection_delay_ops << "|" << r.detection_delay_rounds << "|"
         << r.ops_completed << "|" << r.rounds_executed << "|"
         << r.traffic.messages << "|" << r.traffic.bytes << "|"
         << r.traffic.external_messages << "|" << r.seed << "|"
         << r.ground_truth_deviation << "|"
         << scenario.server()->ops_after_attack() << "|"
         << scenario.server()->ops_processed() << "\n";
  }
  void Run(ScenarioConfig config, workload::Workload workload,
           sim::Round rounds) {
    Scenario scenario(std::move(config), std::move(workload));
    ScenarioReport r = scenario.Run(rounds);
    Add(scenario, r);
  }
  std::string Digest() const {
    return util::HexEncode(crypto::Sha256::Hash(out_.str()));
  }

 private:
  std::ostringstream out_;
};

workload::Workload CvsWorkload(uint32_t users, uint32_t ops, uint32_t files,
                               sim::Round think, uint64_t seed) {
  workload::CvsWorkloadOptions opts;
  opts.num_users = users;
  opts.ops_per_user = ops;
  opts.num_files = files;
  opts.mean_think_rounds = think;
  opts.offline_probability = 0.0;
  opts.seed = seed;
  return workload::MakeCvsWorkload(opts);
}

workload::Workload EpochWorkload(uint32_t users, uint32_t epochs,
                                 uint32_t ops_per_epoch) {
  workload::EpochWorkloadOptions opts;
  opts.num_users = users;
  opts.num_epochs = epochs;
  opts.epoch_rounds = 50;
  opts.ops_per_epoch = ops_per_epoch;
  return workload::MakeEpochWorkload(opts);
}

workload::Workload PartitionWorkload() {
  workload::PartitionableOptions opts;
  opts.users_in_a = 2;
  opts.users_in_b = 2;
  opts.prefix_ops_per_user = 3;
  opts.partition_round = 80;
  opts.b_ops_after_dependency = 15;
  return workload::MakePartitionableWorkload(opts);
}

ScenarioConfig Base(ProtocolKind protocol, uint32_t users) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = users;
  config.sync_k = 6;
  config.epoch_rounds = 60;
  config.user_key_height = 7;
  return config;
}

// Users {3, 4} are served a fork from `at` on.
void Fork(ScenarioConfig* config, sim::Round at) {
  config->attack.schedule = {
      {.kind = AttackKind::kFork, .at = at, .victims = {3, 4}}};
}

// The first commit at/after `at` is tampered with (or dropped).
void OneShot(ScenarioConfig* config, bool tamper, sim::Round at) {
  config->attack.schedule = {
      {.kind = tamper ? AttackKind::kEquivocate : AttackKind::kDrop,
       .at = at,
       .duration = kForever,
       .arg = 1}};
}

// Protocol III: the server suppresses (or staleifies) `victim`'s epoch blob.
void EpochState(ScenarioConfig* config, bool omit, sim::AgentId victim) {
  config->attack.schedule = {
      {.kind = omit ? AttackKind::kOmitEpochState
                    : AttackKind::kStaleEpochState,
       .duration = kForever,
       .victims = {victim}}};
}

// The server stops answering from `at` on.
void Stall(ScenarioConfig* config, sim::Round at) {
  config->attack.schedule = {
      {.kind = AttackKind::kStall, .at = at, .duration = kForever}};
}

// Same scenarios as tcvs_campaign --seed S --scenarios 200.
std::string CampaignDigest(uint64_t seed) {
  Pin pin;
  campaign::CampaignOptions options;
  util::Rng rng(seed);
  for (uint32_t i = 0; i < 200; ++i) {
    uint64_t scenario_seed = rng.Next();
    if (scenario_seed == 0) scenario_seed = 1;
    const bool honest = rng.NextDouble() < options.honest_fraction;
    const campaign::CampaignSchedule s =
        campaign::GenerateSchedule(scenario_seed, honest);
    Scenario scenario(s.ToConfig(), s.MakeWorkload());
    ScenarioReport r = scenario.Run(s.horizon);
    pin.Add(scenario, r);
  }
  return pin.Digest();
}

TEST(AdversaryGolden, CampaignSeed1) {
  EXPECT_EQ(CampaignDigest(1),
            "7e6e57ac45b4481c6803ac04c89b9d81a91f83b42ca1d68eac3f391e90096b72");
}

TEST(AdversaryGolden, CampaignSeed2) {
  EXPECT_EQ(CampaignDigest(2),
            "19107e4870aa4a27f0dd77824489458a534d3b22310a08f5625dcf9d23dac834");
}

TEST(AdversaryGolden, CampaignSeed3) {
  EXPECT_EQ(CampaignDigest(3),
            "dd44fae453bf826217983c90e981b50a1a4218074c596a5bf6032238236783ba");
}

TEST(AdversaryGolden, Figure3Replay) {
  Pin pin;
  for (bool naive : {true, false}) {
    Scenario scenario = MakeReplayScenario(naive);
    ScenarioReport r = scenario.Run(300);
    pin.Add(scenario, r);
  }
  EXPECT_EQ(pin.Digest(),
            "5ba6a1d48eee12e6df2d5ad84fa21942b9a387a9eeb5406b29a3c3c8d38345c9");
}

TEST(AdversaryGolden, ForkScenarios) {
  Pin pin;
  for (ProtocolKind p :
       {ProtocolKind::kPlain, ProtocolKind::kNoExternalComm,
        ProtocolKind::kProtocolI, ProtocolKind::kProtocolII,
        ProtocolKind::kProtocolIINaive, ProtocolKind::kTokenBaseline}) {
    ScenarioConfig config = Base(p, 4);
    Fork(&config, 60);
    pin.Run(config, PartitionWorkload(), 3000);
  }
  ScenarioConfig p3 = Base(ProtocolKind::kProtocolIII, 4);
  p3.epoch_rounds = 50;
  Fork(&p3, 120);
  pin.Run(p3, EpochWorkload(4, 10, 3), 10 * 50 + 200);
  EXPECT_EQ(pin.Digest(),
            "392876acda51a7533b4d272d917b34c927e3cc835eebd89befd656f91150515c");
}

TEST(AdversaryGolden, TamperAndDropScenarios) {
  Pin pin;
  for (ProtocolKind p : {ProtocolKind::kPlain, ProtocolKind::kProtocolI,
                         ProtocolKind::kProtocolII,
                         ProtocolKind::kTokenBaseline}) {
    for (bool tamper : {true, false}) {
      ScenarioConfig config = Base(p, 3);
      OneShot(&config, tamper, 40);
      config.forced_syncs = {400};
      pin.Run(config, CvsWorkload(3, 12, 8, 3, 21), 4000);
    }
  }
  // Protocol I with syncs disabled: the signature chain alone detects.
  ScenarioConfig sig_only = Base(ProtocolKind::kProtocolI, 3);
  OneShot(&sig_only, /*tamper=*/true, 40);
  sig_only.forced_syncs = {400};
  sig_only.sync_k = 1000;
  pin.Run(sig_only, CvsWorkload(3, 12, 8, 3, 21), 4000);
  // Journal-carrying sync localizes the tampered counter.
  ScenarioConfig journal;
  journal.num_users = 3;
  journal.sync_k = 8;
  journal.journal_len = 64;
  journal.forced_syncs = {400};
  OneShot(&journal, /*tamper=*/true, 40);
  pin.Run(journal, CvsWorkload(3, 15, 16, 4, 21), 2000);
  EXPECT_EQ(pin.Digest(),
            "91342408f2f91691795e66f0f768559fb7ab4d89c9f2b02a9d37f33e46c33074");
}

TEST(AdversaryGolden, StallScenario) {
  Pin pin;
  ScenarioConfig config;
  config.num_users = 3;
  config.sync_k = 100;
  config.b_star = 20;
  Stall(&config, 50);
  pin.Run(config, CvsWorkload(3, 20, 16, 3, 71), 3000);
  EXPECT_EQ(pin.Digest(),
            "f70b99d44b06309ad2bee22f5559eefecb813e98cbe6a10eb45a5a671fb81c9f");
}

TEST(AdversaryGolden, EpochStateScenarios) {
  Pin pin;
  for (bool omit : {true, false}) {
    ScenarioConfig config = Base(ProtocolKind::kProtocolIII, 3);
    config.epoch_rounds = 50;
    EpochState(&config, omit, 2);
    pin.Run(config, EpochWorkload(3, 8, 2), 8 * 50 + 200);
  }
  EXPECT_EQ(pin.Digest(),
            "1808ab8a2d981dd63075ee51da05ea54bd8f40ff6088b6f4d84b4f1e04e08956");
}

// The cells of bench_detection_matrix (experiment E9).
ScenarioConfig MatrixConfig(ProtocolKind protocol) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = 4;
  config.sync_k = 6;
  config.epoch_rounds = 50;
  config.user_key_height = 9;
  config.forced_syncs = {900};
  return config;
}

void RunMatrixCell(Pin* pin, const ScenarioConfig& config) {
  if (config.protocol == ProtocolKind::kProtocolIII) {
    pin->Run(config, EpochWorkload(4, 10, 3), 10 * 50 + 300);
  } else {
    pin->Run(config, CvsWorkload(4, 25, 8, 2, 23), 2000);
  }
}

TEST(AdversaryGolden, DetectionMatrixCells) {
  Pin pin;
  for (int attack = 0; attack < 3; ++attack) {
    for (ProtocolKind p :
         {ProtocolKind::kPlain, ProtocolKind::kNoExternalComm,
          ProtocolKind::kTokenBaseline, ProtocolKind::kProtocolI,
          ProtocolKind::kProtocolII, ProtocolKind::kProtocolIII}) {
      ScenarioConfig config = MatrixConfig(p);
      if (attack == 0) {
        Fork(&config, 60);
      } else {
        OneShot(&config, /*tamper=*/attack == 1, 60);
      }
      RunMatrixCell(&pin, config);
    }
  }
  for (bool omit : {true, false}) {
    ScenarioConfig config = MatrixConfig(ProtocolKind::kProtocolIII);
    EpochState(&config, omit, 2);
    RunMatrixCell(&pin, config);
  }
  EXPECT_EQ(pin.Digest(),
            "c9ba668ca2b2382e5f2c99bec07d7d3bf5f4928e90ecd0da96a71ad74c7b5ad9");
}

}  // namespace
}  // namespace core
}  // namespace tcvs
