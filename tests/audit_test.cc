// Tests for the security audit-event log (util/audit.h): the typed event
// ring itself, its JSON-lines form, and — end-to-end — that the partition and
// replay attack scenarios leave the forensic trail the paper's auditor
// needs: fork events naming the diverging digests and counters, each tied
// to a non-zero causal trace id.

#include "util/audit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.h"
#include "util/jsonish.h"
#include "util/metrics.h"
#include "workload/workload.h"

namespace tcvs {
namespace util {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AuditLog::Instance().ResetForTesting();
    MetricsRegistry::Instance().ResetForTesting();
  }
  void TearDown() override {
    AuditLog::Instance().ResetForTesting();
    MetricsRegistry::Instance().ResetForTesting();
  }
};

TEST_F(AuditTest, EmitAssignsSeqAndTimestamp) {
  AuditLog& log = AuditLog::Instance();
  AuditEvent e(AuditEventKind::kCounterRegression);
  e.user = 3;
  e.ctr = 41;
  e.gctr = 42;
  log.Emit(e);
  log.Emit(AuditEvent(AuditEventKind::kSyncUpPass));
  std::vector<AuditEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].seq, 0u);
  EXPECT_GT(events[1].seq, events[0].seq);
  EXPECT_NE(events[0].ts_us, 0u);
  EXPECT_EQ(events[0].kind, AuditEventKind::kCounterRegression);
  EXPECT_EQ(events[0].user, 3u);
  EXPECT_EQ(events[0].ctr, 41u);
  EXPECT_EQ(events[0].gctr, 42u);
  EXPECT_EQ(log.total_emitted(), 2u);
}

TEST_F(AuditTest, EmitInheritsActiveTraceContext) {
  AuditLog& log = AuditLog::Instance();
  uint64_t trace = 0;
  {
    TCVS_SPAN("test.audit.emitting_op");
    trace = CurrentSpanContext().trace_id;
    log.Emit(AuditEvent(AuditEventKind::kVoMismatch));
  }
  ASSERT_NE(trace, 0u);
  EXPECT_EQ(log.Snapshot()[0].trace_id, trace);
  // An explicit trace id is preserved, not overwritten.
  AuditEvent pinned(AuditEventKind::kVoMismatch);
  pinned.trace_id = 77;
  log.Emit(pinned);
  EXPECT_EQ(log.Snapshot()[1].trace_id, 77u);
}

TEST_F(AuditTest, CapacityBoundsRetainedEvents) {
  AuditLog& log = AuditLog::Instance();
  log.set_capacity(1);  // Clamped up to kMinCapacity.
  EXPECT_EQ(log.capacity(), AuditLog::kMinCapacity);
  for (size_t i = 0; i < AuditLog::kMinCapacity + 10; ++i) {
    AuditEvent e(AuditEventKind::kDeviationDetected);
    e.ctr = i;
    log.Emit(std::move(e));
  }
  std::vector<AuditEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), AuditLog::kMinCapacity);
  EXPECT_EQ(events.front().ctr, 10u);  // Oldest 10 were evicted.
  EXPECT_EQ(log.total_emitted(), AuditLog::kMinCapacity + 10);
}

TEST_F(AuditTest, SnapshotSinceIsExclusiveAndOrdered) {
  AuditLog& log = AuditLog::Instance();
  for (int i = 0; i < 5; ++i) {
    log.Emit(AuditEvent(AuditEventKind::kSyncUpPass));
  }
  std::vector<AuditEvent> all = log.Snapshot();
  std::vector<AuditEvent> tail = log.SnapshotSince(all[1].seq);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, all[2].seq);
}

// The /eventsz JSON line is the audit log's only wire form (`tcvs events`
// parses it back): every field must survive it.
TEST_F(AuditTest, JsonLineCarriesEveryField) {
  AuditLog& log = AuditLog::Instance();
  AuditEvent e(AuditEventKind::kForkDetected);
  e.user = 2;
  e.ctr = 100;
  e.epoch = 4;
  e.gctr = 100;
  e.lctr_sum = 99;
  e.expected_digest = Bytes(32, 0xAA);
  e.actual_digest = Bytes(32, 0xBB);
  e.trace_id = 0x1122334455667788ull;
  e.detail = "fork/partition detected at sync 100";
  log.Emit(e);
  std::vector<AuditEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  auto parsed = ParseJson(events[0].JsonFormat());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetU64("seq"), events[0].seq);
  EXPECT_EQ(parsed->GetU64("ts_us"), events[0].ts_us);
  EXPECT_EQ(parsed->Get("kind")->string(), "fork_detected");
  EXPECT_EQ(parsed->GetU64("user"), 2u);
  EXPECT_EQ(parsed->GetU64("ctr"), 100u);
  EXPECT_EQ(parsed->GetU64("epoch"), 4u);
  EXPECT_EQ(parsed->GetU64("gctr"), 100u);
  EXPECT_EQ(parsed->GetU64("lctr_sum"), 99u);
  EXPECT_EQ(parsed->Get("expected_digest")->string(),
            HexEncode(Bytes(32, 0xAA)));
  EXPECT_EQ(parsed->Get("actual_digest")->string(),
            HexEncode(Bytes(32, 0xBB)));
  EXPECT_EQ(parsed->Get("trace_id")->string(), "1122334455667788");
  EXPECT_EQ(parsed->Get("detail")->string(),
            "fork/partition detected at sync 100");
}

TEST_F(AuditTest, JsonFormatNamesKindAndHexesDigests) {
  AuditEvent e(AuditEventKind::kSignatureVerifyFailure);
  e.seq = 9;
  e.user = 1;
  e.expected_digest = Bytes{0xDE, 0xAD};
  e.detail = "Lamport: verification failure";
  const std::string json = e.JsonFormat();
  EXPECT_NE(json.find("\"kind\":\"signature_verify_failure\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"expected_digest\":\"dead\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"detail\":\"Lamport: verification failure\""),
            std::string::npos)
      << json;
}

TEST_F(AuditTest, EmitBumpsPerKindCounters) {
  AuditLog::Instance().Emit(AuditEvent(AuditEventKind::kForkDetected));
  AuditLog::Instance().Emit(AuditEvent(AuditEventKind::kForkDetected));
  MetricsRegistry& reg = MetricsRegistry::Instance();
  EXPECT_EQ(reg.GetCounter("audit.events_total")->value(), 2u);
  EXPECT_EQ(reg.GetCounter("audit.forks_detected_total")->value(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: attack scenarios must leave a forensic audit trail.
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

core::ScenarioConfig ForkConfig() {
  core::ScenarioConfig config;
  config.protocol = core::ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 6;
  config.epoch_rounds = 60;
  config.user_key_height = 7;
  // Split before round-80 t1 lands.
  config.attack.schedule = {
      {.kind = core::AttackKind::kFork, .at = 60, .victims = {3, 4}}};
  return config;
}

const AuditEvent* FindKind(const std::vector<AuditEvent>& events,
                           AuditEventKind kind) {
  for (const AuditEvent& e : events) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

TEST_F(AuditTest, PartitionAttackLeavesForkEvidence) {
  core::Scenario scenario(ForkConfig(), PartitionWorkload());
  core::ScenarioReport report = scenario.Run(3000);
  ASSERT_TRUE(report.detected) << "fork must be detected";

  std::vector<AuditEvent> events = AuditLog::Instance().Snapshot();
  const AuditEvent* fork = FindKind(events, AuditEventKind::kForkDetected);
  ASSERT_NE(fork, nullptr)
      << "partition detection must emit a kForkDetected audit event";
  // The acceptance bar: the event names who saw it, at which counter and
  // epoch, with both divergent digests, tied to a live causal trace.
  EXPECT_NE(fork->user, 0u);
  EXPECT_GT(fork->gctr, 0u);
  ASSERT_EQ(fork->expected_digest.size(), fork->actual_digest.size());
  EXPECT_FALSE(fork->expected_digest.empty());
  EXPECT_NE(fork->expected_digest, fork->actual_digest)
      << "a fork's evidence is two digests that DISAGREE";
  EXPECT_NE(fork->trace_id, 0u)
      << "audit events must carry the trace of the exchange that exposed "
         "the deviation";

  const AuditEvent* fail = FindKind(events, AuditEventKind::kSyncUpFail);
  ASSERT_NE(fail, nullptr);
  EXPECT_GT(fail->gctr, 0u);
  EXPECT_GT(fail->lctr_sum, 0u);
  // The fork's signature: transitions the server showed (Σ lctr) exceed a
  // single serial history's counter.
  EXPECT_NE(fail->gctr, fail->lctr_sum);

  // The kernel-level detection report also lands in the log.
  const AuditEvent* deviation =
      FindKind(events, AuditEventKind::kDeviationDetected);
  ASSERT_NE(deviation, nullptr);
  EXPECT_NE(deviation->detail.find("sync"), std::string::npos)
      << deviation->detail;
}

TEST_F(AuditTest, HonestRunEmitsOnlyPasses) {
  core::ScenarioConfig config = ForkConfig();
  config.attack = core::AttackConfig{};  // Same protocol, no attack.
  core::Scenario scenario(config, PartitionWorkload());
  core::ScenarioReport report = scenario.Run(3000);
  EXPECT_FALSE(report.detected) << report.detection_reason;
  std::vector<AuditEvent> events = AuditLog::Instance().Snapshot();
  EXPECT_EQ(FindKind(events, AuditEventKind::kForkDetected), nullptr);
  EXPECT_EQ(FindKind(events, AuditEventKind::kSyncUpFail), nullptr);
  ASSERT_NE(FindKind(events, AuditEventKind::kSyncUpPass), nullptr)
      << "sync-ups happened and passed: the log must say so";
}

TEST_F(AuditTest, ReplayAttackLeavesAuditTrail) {
  core::Scenario scenario = core::MakeReplayScenario(/*naive=*/false);
  core::ScenarioReport report = scenario.Run(3000);
  ASSERT_TRUE(report.detected) << "tagged fingerprints must catch the replay";
  std::vector<AuditEvent> events = AuditLog::Instance().Snapshot();
  const AuditEvent* deviation =
      FindKind(events, AuditEventKind::kDeviationDetected);
  ASSERT_NE(deviation, nullptr);
  EXPECT_NE(deviation->user, 0u);
  EXPECT_NE(deviation->trace_id, 0u);
  EXPECT_EQ(deviation->detail, report.detection_reason);
}

}  // namespace
}  // namespace util
}  // namespace tcvs
