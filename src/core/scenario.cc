#include "core/scenario.h"

#include "core/protocol_core.h"
#include "crypto/hmac.h"
#include "util/logging.h"

namespace tcvs {
namespace core {

namespace {
bool NeedsSigners(ProtocolKind protocol) {
  return protocol == ProtocolKind::kProtocolI ||
         protocol == ProtocolKind::kTokenBaseline ||
         protocol == ProtocolKind::kProtocolIII;
}
}  // namespace

std::string_view ProtocolKindToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPlain:
      return "Plain";
    case ProtocolKind::kNoExternalComm:
      return "NoExternalComm";
    case ProtocolKind::kTokenBaseline:
      return "TokenBaseline";
    case ProtocolKind::kProtocolI:
      return "ProtocolI";
    case ProtocolKind::kProtocolII:
      return "ProtocolII";
    case ProtocolKind::kProtocolIINaive:
      return "ProtocolIIUntagged";
    case ProtocolKind::kProtocolIII:
      return "ProtocolIII";
  }
  return "Unknown";
}

std::string_view SyncModeToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBroadcast:
      return "Broadcast";
    case SyncMode::kAggregationTree:
      return "AggregationTree";
  }
  return "Unknown";
}

std::string_view AttackKindToString(AttackKind kind) {
  switch (kind) {
    case AttackKind::kHonest:
      return "Honest";
    case AttackKind::kFork:
      return "Fork";
    case AttackKind::kDrop:
      return "Drop";
    case AttackKind::kReplaySegment:
      return "ReplaySegment";
    case AttackKind::kOmitEpochState:
      return "OmitEpochState";
    case AttackKind::kStaleEpochState:
      return "StaleEpochState";
    case AttackKind::kStall:
      return "Stall";
    case AttackKind::kRollback:
      return "Rollback";
    case AttackKind::kEquivocate:
      return "Equivocate";
    case AttackKind::kDelay:
      return "Delay";
  }
  return "Unknown";
}

Scenario::Scenario(ScenarioConfig config, workload::Workload workload)
    : config_(std::move(config)) {
  const uint32_t n = config_.num_users;
  TCVS_CHECK(workload.size() <= n);
  kernel_.set_run_seed(config_.seed);

  // PKI: a certificate authority plus one MSS signing key per user; every
  // user's key store holds everyone's verified certificate.
  std::map<sim::AgentId, std::shared_ptr<crypto::MerkleSigner>> signers;
  std::shared_ptr<crypto::KeyStore> keystore;
  Bytes initial_sig;
  uint32_t initial_signer = 0;
  if (NeedsSigners(config_.protocol)) {
    crypto::CertificateAuthority ca(util::ToBytes("tcvs-ca-seed"), /*height=*/10);
    keystore = std::make_shared<crypto::KeyStore>(ca.public_key());
    for (uint32_t u = 1; u <= n; ++u) {
      Bytes seed = crypto::Prf(util::ToBytes("tcvs-user-key"), u);
      auto signer = std::make_shared<crypto::MerkleSigner>(
          seed, config_.user_key_height);
      auto cert = ca.Issue(u, signer->public_key());
      TCVS_CHECK_OK(cert.status());
      TCVS_CHECK_OK(keystore->Add(*cert));
      signers[u] = std::move(signer);
    }
    // Protocol I / token baseline initialization: user 1 is elected to sign
    // h(M(D₀) ‖ 0). Protocol III keeps creator 0: its XOR fingerprints tag
    // the initial state with the reserved kInitialCreator id.
    if (config_.protocol == ProtocolKind::kProtocolI ||
        config_.protocol == ProtocolKind::kTokenBaseline) {
      auto sig = signers[1]->Sign(
          SignedStatePreimage(mtree::EmptyRootDigest(), 0));
      TCVS_CHECK_OK(sig.status());
      initial_sig = std::move(sig).ValueOrDie();
      initial_signer = 1;
    }
  }

  server_ = std::make_shared<ProtocolServer>(config_, initial_sig, initial_signer);
  kernel_.AddAgent(sim::kServerId, server_);

  std::map<sim::AgentId, workload::UserScript> scripts;
  for (auto& script : workload) scripts[script.user] = std::move(script);

  for (uint32_t u = 1; u <= n; ++u) {
    ProtocolUser::Options opts;
    opts.config = config_;
    opts.id = u;
    opts.num_users = n;
    auto it = scripts.find(u);
    if (it != scripts.end()) {
      opts.script = std::move(it->second);
    } else {
      opts.script.user = u;  // No scripted ops: passive participant.
    }
    if (NeedsSigners(config_.protocol)) {
      opts.signer = signers[u];
      opts.keystore = keystore;
    }
    opts.trace = &trace_;
    auto user = std::make_shared<ProtocolUser>(std::move(opts));
    users_[u] = user;
    kernel_.AddAgent(u, user);
    kernel_.RegisterUser(u);
  }
}

Scenario::~Scenario() = default;

ScenarioReport Scenario::RunUntilDone(sim::Round max_rounds, sim::Round grace) {
  constexpr sim::Round kSlice = 32;
  sim::SimReport sim_report;
  bool done_seen = false;
  sim::Round done_deadline = 0;
  while (kernel_.now() < max_rounds) {
    sim_report = kernel_.Continue(std::min(kSlice, max_rounds - kernel_.now()));
    if (sim_report.detected) break;
    bool all_done = true;
    for (auto& [id, user] : users_) {
      if (!user->script_done()) {
        all_done = false;
        break;
      }
    }
    if (all_done && !done_seen) {
      done_seen = true;
      done_deadline = kernel_.now() + grace;
    }
    if (done_seen && kernel_.now() >= done_deadline) break;
  }
  return BuildReport(sim_report);
}

ScenarioReport Scenario::Run(sim::Round max_rounds) {
  sim::SimReport sim_report = kernel_.Run(max_rounds);
  return BuildReport(sim_report);
}

ScenarioReport Scenario::BuildReport(const sim::SimReport& sim_report) {

  ScenarioReport report;
  report.detected = sim_report.detected;
  report.detection_round = sim_report.detection_round;
  report.detector = sim_report.detector;
  report.detection_reason = sim_report.detection_reason;
  report.rounds_executed = sim_report.rounds_executed;
  report.traffic = sim_report.traffic;
  report.seed = config_.seed;

  report.attack_engaged_round = server_->attack_engaged_round();
  if (report.detected && report.attack_engaged_round != 0 &&
      report.detection_round >= report.attack_engaged_round) {
    report.detection_delay_rounds =
        report.detection_round - report.attack_engaged_round;
    report.detection_delay_ops = server_->ops_after_attack();
  }

  report.ground_truth_deviation =
      sim::FindDeviation(trace_.records()).has_value();

  uint64_t max_gctr = 0, max_checkpoint = 0;
  for (auto& [id, user] : users_) {
    max_gctr = std::max(max_gctr, user->gctr());
    max_checkpoint = std::max(max_checkpoint, user->checkpoint_gctr());
  }
  report.rollback_ops = max_gctr - max_checkpoint;

  uint64_t latency_sum = 0;
  report.all_scripts_done = true;
  for (auto& [id, user] : users_) {
    report.ops_completed += user->ops_completed();
    latency_sum += user->latency_sum();
    report.max_latency_rounds =
        std::max(report.max_latency_rounds, user->latency_max());
    report.latency.Merge(user->latency_histogram());
    if (!user->script_done()) report.all_scripts_done = false;
  }
  report.avg_latency_rounds =
      report.ops_completed == 0
          ? 0.0
          : static_cast<double>(latency_sum) / report.ops_completed;
  return report;
}

Scenario MakeReplayScenario(bool naive, uint32_t sync_k) {
  // The Figure-3 replay, engineered so the duplicated transitions cancel
  // exactly in the untagged XOR registers:
  //
  //   honest:   S0 -(u2: O1)-> S1 -(u1: O2)-> S2 -(u2: O3)-> S3 -(u3: O4)-> S4
  //   replay:                                 S2 -(u4: O3)-> S3 -(u5: O4)-> S4
  //
  // u1 never operates after O2, so last_{u1} = F(S2, 2). The duplicated
  // segment [S2 → S4] then leaves exactly F(S0,0) ⊕ F(S2,2) in the combined
  // XOR, which matches the untagged sync equation for i = u1 — the server's
  // availability violation (u4 and u5 never see u3's work, and the run has
  // two transactions per counter value) goes UNDETECTED by the untagged
  // variant. With user-tagged fingerprints (real Protocol II) the duplicate
  // states carry different creator tags, the parity argument of Lemma 4.1
  // applies, and the sync-up detects the attack.
  ScenarioConfig config;
  config.protocol =
      naive ? ProtocolKind::kProtocolIINaive : ProtocolKind::kProtocolII;
  config.num_users = 5;
  config.sync_k = sync_k;  // Large enough that only the forced sync fires.
  // From round 30 on, users 4 and 5 are served the recorded pre-states,
  // skipping O1 and O2: only O3 and O4 are duplicated.
  config.attack.schedule = {{.kind = AttackKind::kReplaySegment,
                              .at = 30,
                              .victims = {4, 5},
                              .arg = 2}};
  config.forced_syncs = {70};

  const Bytes key_x = util::ToBytes("src/x.c");
  const Bytes key_y = util::ToBytes("src/y.c");
  const Bytes key_z = util::ToBytes("src/z.c");
  const Bytes key_w = util::ToBytes("src/w.c");

  workload::Workload w;
  {
    workload::UserScript s;
    s.user = 2;
    s.ops.push_back({2, sim::OpKind::kCommit, key_x, util::ToBytes("A\n")});
    s.ops.push_back({10, sim::OpKind::kCommit, key_z, util::ToBytes("C\n")});
    w.push_back(std::move(s));
  }
  {
    workload::UserScript s;
    s.user = 1;
    s.ops.push_back({6, sim::OpKind::kCommit, key_y, util::ToBytes("B\n")});
    w.push_back(std::move(s));
  }
  {
    workload::UserScript s;
    s.user = 3;
    s.ops.push_back({14, sim::OpKind::kCommit, key_w, util::ToBytes("D\n")});
    w.push_back(std::move(s));
  }
  // Mirror users issue the identical operations O3 and O4 after the trigger;
  // the server replays the recorded pre-states to them.
  {
    workload::UserScript s;
    s.user = 4;
    s.ops.push_back({35, sim::OpKind::kCommit, key_z, util::ToBytes("C\n")});
    w.push_back(std::move(s));
  }
  {
    workload::UserScript s;
    s.user = 5;
    s.ops.push_back({45, sim::OpKind::kCommit, key_w, util::ToBytes("D\n")});
    w.push_back(std::move(s));
  }
  return Scenario(config, std::move(w));
}

}  // namespace core
}  // namespace tcvs
