#include "util/cost.h"

#include <cinttypes>
#include <cstdio>

namespace tcvs {
namespace util {

namespace {

thread_local CostCounters* tls_cost_counters = nullptr;

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

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendHexId(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  *out += buf;
}

}  // namespace

CostScope::CostScope() : prev_(tls_cost_counters) {
  tls_cost_counters = &counters_;
}

CostScope::~CostScope() { tls_cost_counters = prev_; }

CostCounters* CurrentCostCounters() { return tls_cost_counters; }

std::string SlowOpRecord::JsonFormat() const {
  std::string out = "{\"method\":";
  AppendJsonEscaped(&out, method);
  out += ",\"latency_us\":";
  AppendU64(&out, latency_us);
  out += ",\"trace_id\":";
  AppendHexId(&out, trace_id);
  out += ",\"ts_us\":";
  AppendU64(&out, ts_us);
  out += ",\"cost\":{\"hashes\":";
  AppendU64(&out, cost.hashes);
  out += ",\"bytes_hashed\":";
  AppendU64(&out, cost.bytes_hashed);
  out += ",\"vo_bytes_built\":";
  AppendU64(&out, cost.vo_bytes_built);
  out += ",\"wal_appends\":";
  AppendU64(&out, cost.wal_appends);
  out += ",\"wal_fsync_wait_us\":";
  AppendU64(&out, cost.wal_fsync_wait_us);
  out += ",\"queue_us\":";
  AppendU64(&out, cost.queue_us);
  out += "},\"spans\":[";
  bool first = true;
  for (const TraceDump::Event& e : spans) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonEscaped(&out, e.name);
    out += ",\"start_us\":";
    AppendU64(&out, e.start_us);
    out += ",\"duration_us\":";
    AppendU64(&out, e.duration_us);
    out += ",\"trace_id\":";
    AppendHexId(&out, e.trace_id);
    out += ",\"span_id\":";
    AppendHexId(&out, e.span_id);
    out += ",\"parent_span_id\":";
    AppendHexId(&out, e.parent_span_id);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace util
}  // namespace tcvs
