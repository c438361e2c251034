// Experiment F4 (paper Figure 4 + Theorem 4.3): Protocol III epochs.
//
// Sweep the epoch length t and measure the delay between the server's fork
// engaging and the rotating audit detecting it. Reproduced claim: detection
// within two epochs (the state deposited during e+1, audited in e+2), i.e.
// delay <= 2t plus the audit round trip — a TIME bound, with zero external
// communication and no requirement that users be online simultaneously.

#include <cstdio>

#include "bench/json_out.h"
#include "bench/table.h"
#include "core/scenario.h"
#include "workload/workload.h"

using namespace tcvs;
using namespace tcvs::core;
using tcvs::bench::Num;
using tcvs::bench::Table;
using tcvs::bench::YesNo;

namespace {

ScenarioReport RunEpochFork(sim::Round epoch_rounds, sim::Round trigger) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kProtocolIII;
  config.num_users = 4;
  config.epoch_rounds = epoch_rounds;
  config.user_key_height = 8;
  config.attack.schedule = {
      {.kind = AttackKind::kFork, .at = trigger, .victims = {3, 4}}};

  workload::EpochWorkloadOptions opts;
  opts.num_users = 4;
  opts.num_epochs = 14;
  opts.epoch_rounds = epoch_rounds;
  opts.ops_per_epoch = 2;
  Scenario scenario(config, workload::MakeEpochWorkload(opts));
  return scenario.Run(14 * epoch_rounds + 400);
}

}  // namespace

int main() {
  bench::JsonOut json("bench_epoch_detection");
  std::printf("F4: Protocol III — detection delay vs epoch length t\n");
  std::printf("(4 users, 2 ops per user per epoch, fork mid-epoch 3,\n");
  std::printf(" external messages must stay 0: no broadcast channel)\n\n");

  Table table({"epoch t (rounds)", "fork round", "detected", "delay (rounds)",
               "delay (epochs)", "2-epoch bound ok", "external msgs"});
  for (sim::Round t : {20u, 40u, 80u, 160u, 320u}) {
    sim::Round trigger = 3 * t + t / 2;
    ScenarioReport r = RunEpochFork(t, trigger);
    double delay_epochs =
        r.detected ? double(r.detection_delay_rounds) / double(t) : -1;
    // Theorem 4.3: within two epochs of the *end* of the faulty epoch; from
    // a mid-epoch fault that is ≤ 2.5 epochs, plus the audit round trip.
    bool within = r.detected && r.detection_delay_rounds <= 2 * t + t / 2 + 10;
    table.AddRow({Num(uint64_t(t)), Num(uint64_t(trigger)), YesNo(r.detected),
                  r.detected ? Num(r.detection_delay_rounds) : "-",
                  r.detected ? Num(delay_epochs) : "-", YesNo(within),
                  Num(r.traffic.external_messages)});
  }
  table.Print();
  json.Add("detection delay vs epoch length t", table);

  std::printf(
      "Expected shape: delay grows linearly with t and stays within the\n"
      "2-epoch audit pipeline; the external-message column is all zero.\n");
  return 0;
}
