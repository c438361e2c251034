// Randomized end-to-end soundness/completeness sweep.
//
// For many random (workload, attack, protocol-parameter) combinations:
//
//   * completeness / no false alarms: an honest server is never accused;
//   * soundness: when the protocol raises the alarm, the server really had
//     attacked (the alarm round is at/after the attack engaged);
//   * detection: every attack that produced a ground-truth deviation is
//     detected by Protocol II, given a final forced sync-up.
//
// These are the paper's guarantees quantified over random instances rather
// than the handful of crafted scenarios in protocol_test.cc.

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "util/audit.h"
#include "util/random.h"
#include "workload/workload.h"

namespace tcvs {
namespace core {
namespace {

class SoundnessSweep : public ::testing::TestWithParam<uint64_t> {};

// True iff the audit log gained (since `min_seq`) a fork-evidence event —
// fork_detected or vo_mismatch — carrying BOTH divergent digests. Every
// detected run must leave one: detection without evidence is an assertion,
// not an audit trail.
bool HasForkEvidenceSince(uint64_t min_seq) {
  for (const util::AuditEvent& ev :
       util::AuditLog::Instance().SnapshotSince(min_seq)) {
    if ((ev.kind == util::AuditEventKind::kForkDetected ||
         ev.kind == util::AuditEventKind::kVoMismatch) &&
        !ev.expected_digest.empty() && !ev.actual_digest.empty()) {
      return true;
    }
  }
  return false;
}

TEST_P(SoundnessSweep, HonestServerNeverAccused) {
  util::Rng rng(GetParam() * 1000 + 1);
  for (int iter = 0; iter < 6; ++iter) {
    ScenarioConfig config;
    config.protocol = (iter % 2 == 0) ? ProtocolKind::kProtocolII
                                      : ProtocolKind::kProtocolIINaive;
    config.num_users = 2 + rng.Uniform(5);
    config.sync_k = 2 + rng.Uniform(10);
    config.forced_syncs = {700};

    workload::CvsWorkloadOptions opts;
    opts.num_users = config.num_users;
    opts.ops_per_user = 5 + rng.Uniform(20);
    opts.num_files = 2 + rng.Uniform(10);
    opts.read_fraction = rng.NextDouble();
    opts.zipf_theta = rng.NextDouble() * 0.95;
    opts.mean_think_rounds = 1 + rng.Uniform(6);
    opts.offline_probability = 0.0;
    opts.seed = rng.Next();
    Scenario scenario(config, workload::MakeCvsWorkload(opts));
    ScenarioReport r = scenario.Run(2500);
    ASSERT_FALSE(r.detected) << "false alarm (iter " << iter
                             << "): " << r.detection_reason;
    ASSERT_TRUE(r.all_scripts_done);
    ASSERT_FALSE(r.ground_truth_deviation);
  }
}

TEST_P(SoundnessSweep, RandomAttacksDetectedAndNeverBeforeEngaging) {
  util::Rng rng(GetParam() * 7777 + 13);
  int detected_count = 0;
  for (int iter = 0; iter < 8; ++iter) {
    ScenarioConfig config;
    config.protocol = ProtocolKind::kProtocolII;
    config.num_users = 3 + rng.Uniform(3);
    config.sync_k = 3 + rng.Uniform(8);
    config.forced_syncs = {1200};

    AttackStep step;
    const uint64_t pick = rng.Uniform(3);
    if (pick == 0) {
      step.kind = AttackKind::kFork;
      step.at = 20 + rng.Uniform(60);
      // Random nonempty proper subset of users.
      uint32_t member = 2 + rng.Uniform(config.num_users - 1);
      step.victims = {member};
      if (rng.Bernoulli(0.5) && member + 1 <= config.num_users) {
        step.victims.insert(member + 1);
      }
    } else {
      // One-shot tamper (1) or drop (2): the first commit at/after `at`.
      step.kind = pick == 1 ? AttackKind::kEquivocate : AttackKind::kDrop;
      step.at = 20 + rng.Uniform(80);
      step.duration = kForever;
      step.arg = 1;
    }
    config.attack.schedule = {step};

    workload::CvsWorkloadOptions opts;
    opts.num_users = config.num_users;
    opts.ops_per_user = 20 + rng.Uniform(15);
    opts.num_files = 3 + rng.Uniform(6);
    opts.read_fraction = 0.3 + rng.NextDouble() * 0.4;
    opts.mean_think_rounds = 1 + rng.Uniform(4);
    opts.offline_probability = 0.0;
    opts.seed = rng.Next();
    const uint64_t audit_cursor = util::AuditLog::Instance().total_emitted();
    Scenario scenario(config, workload::MakeCvsWorkload(opts));
    ScenarioReport r = scenario.Run(4000);

    if (r.detected) {
      ++detected_count;
      // Soundness: the alarm never predates the attack actually engaging.
      ASSERT_GT(r.attack_engaged_round, 0u)
          << "iter " << iter << ": alarm with no attack: " << r.detection_reason;
      ASSERT_GE(r.detection_round, r.attack_engaged_round) << "iter " << iter;
      // Forensics: every detection leaves a typed fork-evidence audit event
      // with both divergent digests, whatever the attack primitive was.
      ASSERT_TRUE(HasForkEvidenceSince(audit_cursor))
          << "iter " << iter << ": detection without digest-pair evidence ("
          << r.detection_reason << ")";
    } else {
      // Undetected is acceptable only when the attack never engaged (e.g. a
      // tamper trigger past the workload's last commit) or no transaction
      // ever observed divergent data AND the σ-chain stayed single-path —
      // which for these attacks means the attack did not engage.
      ASSERT_EQ(r.attack_engaged_round, 0u)
          << "iter " << iter << ": engaged attack escaped detection ("
          << AttackKindToString(step.kind) << ")";
    }
  }
  // The sweep must actually exercise detection to mean anything.
  EXPECT_GE(detected_count, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace core
}  // namespace tcvs
