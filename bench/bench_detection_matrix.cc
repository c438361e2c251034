// Experiment E9: the attack × protocol detection matrix.
//
// One row per (attack, protocol) pair that is meaningful for that protocol;
// columns report ground-truth deviation, detection, and delays. This is the
// summary table an evaluation section of the paper would have carried: it
// shows each protocol's detection guarantee holding (and the deliberate
// non-guarantees: Plain and NoExternalComm).

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

ScenarioReport RunCell(ProtocolKind protocol, AttackKind attack) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = 4;
  config.sync_k = 6;
  config.epoch_rounds = 50;
  config.user_key_height = 9;
  // Fork: users 3 and 4 split off at round 60. Tamper (a one-shot
  // equivocation) and drop: the first commit at/after round 60. Protocol III
  // storage attacks: user 2's epoch blob, from the start.
  AttackStep step{.kind = attack, .at = 60, .duration = kForever};
  if (attack == AttackKind::kFork) {
    step.victims = {3, 4};
  } else if (attack == AttackKind::kEquivocate ||
             attack == AttackKind::kDrop) {
    step.arg = 1;
  } else {
    step.at = 0;
    step.victims = {2};
  }
  config.attack.schedule = {step};
  config.forced_syncs = {900};  // Guarantee a final sync for one-shot attacks.

  if (protocol == ProtocolKind::kProtocolIII) {
    workload::EpochWorkloadOptions opts;
    opts.num_users = 4;
    opts.num_epochs = 10;
    opts.epoch_rounds = 50;
    opts.ops_per_epoch = 3;
    Scenario scenario(config, workload::MakeEpochWorkload(opts));
    return scenario.Run(10 * 50 + 300);
  }
  workload::CvsWorkloadOptions opts;
  opts.num_users = 4;
  opts.ops_per_user = 25;
  opts.num_files = 8;
  opts.mean_think_rounds = 2;
  opts.offline_probability = 0.0;
  opts.seed = 23;
  Scenario scenario(config, workload::MakeCvsWorkload(opts));
  return scenario.Run(2000);
}

}  // namespace

int main() {
  bench::JsonOut json("bench_detection_matrix");
  std::printf("E9: detection matrix — attack x protocol\n");
  std::printf("(4 users; k = 6; epoch t = 50; one-shot attacks trigger at round 60)\n\n");

  struct Cell {
    ProtocolKind protocol;
    AttackKind attack;
  };
  std::vector<Cell> cells;
  for (AttackKind attack :
       {AttackKind::kFork, AttackKind::kEquivocate, AttackKind::kDrop}) {
    for (ProtocolKind protocol :
         {ProtocolKind::kPlain, ProtocolKind::kNoExternalComm,
          ProtocolKind::kTokenBaseline, ProtocolKind::kProtocolI,
          ProtocolKind::kProtocolII, ProtocolKind::kProtocolIII}) {
      cells.push_back({protocol, attack});
    }
  }
  // Protocol III storage attacks only exist under Protocol III.
  cells.push_back({ProtocolKind::kProtocolIII, AttackKind::kOmitEpochState});
  cells.push_back({ProtocolKind::kProtocolIII, AttackKind::kStaleEpochState});

  Table table({"attack", "protocol", "ground-truth", "detected", "delay (ops)",
               "delay (rounds)"});
  for (const Cell& cell : cells) {
    ScenarioReport r = RunCell(cell.protocol, cell.attack);
    table.AddRow({std::string(AttackKindToString(cell.attack)),
                  std::string(ProtocolKindToString(cell.protocol)),
                  YesNo(r.ground_truth_deviation), YesNo(r.detected),
                  r.detected ? Num(r.detection_delay_ops) : "-",
                  r.detected ? Num(r.detection_delay_rounds) : "-"});
  }
  table.Print();
  json.Add("detection matrix: attack x protocol", table);

  std::printf(
      "Note: the ground-truth column reports deviation *manifest in completed\n"
      "transactions by the time the run stopped* — when detection fires within\n"
      "an op or two, the run halts before any user observes divergent data, so\n"
      "fast-detecting rows can read ground-truth=no while slow/undetected rows\n"
      "accumulate visible divergence.\n\n"
      "Expected shape: Plain never detects anything; NoExternalComm detects\n"
      "nothing here either (every local check passes on both sides of every\n"
      "attack it faces); TokenBaseline/ProtocolI/ProtocolII/ProtocolIII\n"
      "detect every attack aimed at them, with delays bounded by their\n"
      "respective guarantees (slots, next-op signature, k-sync, 2-epoch\n"
      "audit).\n");
  return 0;
}
