#include "util/audit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/metrics.h"

namespace tcvs {
namespace util {

namespace {

/// Per-kind counters with literal names (metric-name lint rule). The
/// registry is its own leaf-lock chain; callers must NOT hold the audit
/// log's mu_ here.
Counter* KindCounter(AuditEventKind kind) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  switch (kind) {
    case AuditEventKind::kSignatureVerifyFailure:
      return reg.GetCounter("audit.signature_verify_failures_total");
    case AuditEventKind::kVoMismatch:
      return reg.GetCounter("audit.vo_mismatches_total");
    case AuditEventKind::kCounterRegression:
      return reg.GetCounter("audit.counter_regressions_total");
    case AuditEventKind::kSyncUpPass:
      return reg.GetCounter("audit.sync_up_passes_total");
    case AuditEventKind::kSyncUpFail:
      return reg.GetCounter("audit.sync_up_failures_total");
    case AuditEventKind::kForkDetected:
      return reg.GetCounter("audit.forks_detected_total");
    case AuditEventKind::kForensicsLocalized:
      return reg.GetCounter("audit.forensics_localizations_total");
    case AuditEventKind::kDeviationDetected:
      return reg.GetCounter("audit.deviations_detected_total");
  }
  return reg.GetCounter("audit.unknown_events_total");
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64Field(std::string* out, const char* key, uint64_t v,
                    bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, *first ? "" : ",", key,
                v);
  *first = false;
  *out += buf;
}

}  // namespace

const char* AuditEventKindName(AuditEventKind kind) {
  switch (kind) {
    case AuditEventKind::kSignatureVerifyFailure:
      return "signature_verify_failure";
    case AuditEventKind::kVoMismatch:
      return "vo_mismatch";
    case AuditEventKind::kCounterRegression:
      return "counter_regression";
    case AuditEventKind::kSyncUpPass:
      return "sync_up_pass";
    case AuditEventKind::kSyncUpFail:
      return "sync_up_fail";
    case AuditEventKind::kForkDetected:
      return "fork_detected";
    case AuditEventKind::kForensicsLocalized:
      return "forensics_localized";
    case AuditEventKind::kDeviationDetected:
      return "deviation_detected";
  }
  return "unknown";
}

std::string AuditEvent::JsonFormat() const {
  std::string out = "{";
  bool first = true;
  AppendU64Field(&out, "seq", seq, &first);
  out += ",\"kind\":";
  AppendJsonEscaped(&out, AuditEventKindName(kind));
  AppendU64Field(&out, "ts_us", ts_us, &first);
  AppendU64Field(&out, "user", user, &first);
  AppendU64Field(&out, "ctr", ctr, &first);
  AppendU64Field(&out, "epoch", epoch, &first);
  AppendU64Field(&out, "gctr", gctr, &first);
  AppendU64Field(&out, "lctr_sum", lctr_sum, &first);
  out += ",\"expected_digest\":";
  AppendJsonEscaped(&out, HexEncode(expected_digest));
  out += ",\"actual_digest\":";
  AppendJsonEscaped(&out, HexEncode(actual_digest));
  char trace_buf[40];
  std::snprintf(trace_buf, sizeof(trace_buf), ",\"trace_id\":\"%016" PRIx64 "\"",
                trace_id);
  out += trace_buf;
  out += ",\"detail\":";
  AppendJsonEscaped(&out, detail);
  out.push_back('}');
  return out;
}

AuditLog& AuditLog::Instance() {
  // Leaked like the metrics registry: destructors running at process exit
  // may still emit.
  static AuditLog* const instance = new AuditLog();  // lint:allow-new
  return *instance;
}

void AuditLog::Emit(AuditEvent event) {
  // Metrics first — the registry chain and our mu_ are both leaves, never
  // nested inside one another.
  static Counter* const total =
      MetricsRegistry::Instance().GetCounter("audit.events_total");
  total->Increment();
  KindCounter(event.kind)->Increment();
  if (event.ts_us == 0) event.ts_us = MonotonicMicros();
  if (event.trace_id == 0) event.trace_id = CurrentSpanContext().trace_id;
  MutexLock lock(&mu_);
  event.seq = next_seq_++;
  ++total_emitted_;
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) events_.pop_front();
}

std::vector<AuditEvent> AuditLog::Snapshot() const {
  MutexLock lock(&mu_);
  return std::vector<AuditEvent>(events_.begin(), events_.end());
}

std::vector<AuditEvent> AuditLog::SnapshotSince(uint64_t min_seq) const {
  MutexLock lock(&mu_);
  std::vector<AuditEvent> out;
  for (const AuditEvent& e : events_) {
    if (e.seq > min_seq) out.push_back(e);
  }
  return out;
}

uint64_t AuditLog::total_emitted() const {
  MutexLock lock(&mu_);
  return total_emitted_;
}

void AuditLog::set_capacity(size_t capacity) {
  capacity = std::max(kMinCapacity, std::min(kMaxCapacity, capacity));
  MutexLock lock(&mu_);
  capacity_ = capacity;
  while (events_.size() > capacity_) events_.pop_front();
}

size_t AuditLog::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

void AuditLog::ResetForTesting() {
  MutexLock lock(&mu_);
  events_.clear();
  capacity_ = kDefaultCapacity;
  total_emitted_ = 0;  // seq keeps advancing; only the tallies reset.
}

}  // namespace util
}  // namespace tcvs
