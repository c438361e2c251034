// Protocol III: trusted CVS for a team that is never online together.
//
// Protocols I and II need a broadcast channel and simultaneous presence at
// every sync-up. Protocol III removes both: time is cut into epochs of t
// rounds; every user performs at least two operations per epoch; users
// deposit their signed (σ, last) registers for epoch e on the *untrusted
// server itself* during epoch e+1; and a rotating auditor re-runs the XOR
// path check in epoch e+2. Any server fault is caught within two epochs —
// a time bound instead of an operation bound (Theorem 4.3).
//
// Build & run:  ./build/examples/offline_team

#include <cstdio>

#include "core/scenario.h"
#include "workload/workload.h"

using namespace tcvs;

namespace {

core::ScenarioReport RunEpochScenario(
    std::vector<core::AttackStep> schedule) {
  core::ScenarioConfig config;
  config.protocol = core::ProtocolKind::kProtocolIII;
  config.num_users = 4;
  config.epoch_rounds = 50;
  config.user_key_height = 8;
  config.attack.schedule = std::move(schedule);

  workload::EpochWorkloadOptions opts;
  opts.num_users = 4;
  opts.num_epochs = 12;
  opts.epoch_rounds = 50;
  opts.ops_per_epoch = 2;  // The §4.4 minimum.
  core::Scenario scenario(config, workload::MakeEpochWorkload(opts));
  return scenario.Run(12 * 50 + 200);
}

}  // namespace

int main() {
  std::printf("Protocol III: epoch-based detection with no broadcast channel\n");
  std::printf("(epoch t = 50 rounds; every user does 2 ops per epoch)\n");
  std::printf("--------------------------------------------------------------\n\n");

  {
    core::ScenarioReport r =
        RunEpochScenario({});
    std::printf("honest server          : detected=%s, external messages=%llu"
                " (none — no broadcast channel)\n",
                r.detected ? "yes (FALSE ALARM)" : "no",
                static_cast<unsigned long long>(r.traffic.external_messages));
  }
  {
    // Users 3 and 4 are forked off at round 170.
    core::ScenarioReport r = RunEpochScenario(
        {{.kind = core::AttackKind::kFork, .at = 170, .victims = {3, 4}}});
    unsigned long long fault_epoch = 170 / 50;
    unsigned long long detect_epoch = r.detection_round / 50;
    std::printf("fork at epoch %llu        : detected=%s in epoch %llu "
                "(within the 2-epoch audit pipeline)\n",
                fault_epoch, r.detected ? "yes" : "NO",
                detect_epoch);
    std::printf("                         reason: %s\n",
                r.detection_reason.c_str());
  }
  {
    core::ScenarioReport r =
        RunEpochScenario({{.kind = core::AttackKind::kOmitEpochState,
                           .duration = core::kForever,
                           .victims = {2}}});
    std::printf("withheld audit blob    : detected=%s (%s)\n",
                r.detected ? "yes" : "NO", r.detection_reason.c_str());
  }
  {
    core::ScenarioReport r =
        RunEpochScenario({{.kind = core::AttackKind::kStaleEpochState,
                           .duration = core::kForever,
                           .victims = {2}}});
    std::printf("stale audit blob       : detected=%s (%s)\n",
                r.detected ? "yes" : "NO", r.detection_reason.c_str());
  }

  std::printf(
      "\nAll state flows through the untrusted server — signatures make the\n"
      "stored registers tamper-evident, and the workload guarantee (two ops\n"
      "per user per epoch) makes them timely.\n");
  return 0;
}
