#include "util/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <random>
#include <thread>

#include "util/logging.h"

namespace tcvs {
namespace util {

namespace {

/// The thread's active span identity. Maintained by TraceSpan (push on
/// construction, pop on destruction) and ScopedTraceContext (install a
/// remote caller's context). Zero-initialized: code outside any span sees
/// trace_id == 0 and allocates a fresh trace when it opens one.
thread_local SpanContext tls_span_context;

/// The innermost ScopedSpanCollector on this thread (nullptr = none). A
/// single relaxed-cost tls load on the span-destruction path when no
/// collector is installed.
thread_local ScopedSpanCollector* tls_span_collector = nullptr;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Process-unique non-zero ids: a once-seeded random base (so ids from
/// different processes in one trace dump do not collide) mixed through
/// SplitMix64 with a global counter (so ids within the process never do).
uint64_t NewId() {
  static const uint64_t process_seed = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ static_cast<uint64_t>(rd()) ^
           MonotonicMicros();
  }();
  static std::atomic<uint64_t> sequence{0};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(process_seed ^
                    sequence.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

/// Dots become underscores and everything gets a `tcvs_` prefix, so
/// `rpc.serve.requests_total` exposes as `tcvs_rpc_serve_requests_total` —
/// valid Prometheus metric names without changing the registry's dotted
/// naming scheme.
std::string ExpositionName(const std::string& name) {
  std::string out = "tcvs_";
  out.reserve(out.size() + name.size());
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

void AppendJsonString(std::string* out, const std::string& s) {
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

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

}  // namespace

SpanContext CurrentSpanContext() { return tls_span_context; }

uint64_t NewTraceId() { return NewId(); }

ScopedTraceContext::ScopedTraceContext(uint64_t trace_id, uint64_t span_id)
    : saved_(tls_span_context) {
  SpanContext remote;
  remote.trace_id = trace_id != 0 ? trace_id : NewId();
  remote.span_id = span_id;
  remote.parent_span_id = 0;
  tls_span_context = remote;
}

ScopedTraceContext::~ScopedTraceContext() { tls_span_context = saved_; }

ScopedSpanCollector::ScopedSpanCollector() : prev_(tls_span_collector) {
  tls_span_collector = this;
}

ScopedSpanCollector::~ScopedSpanCollector() { tls_span_collector = prev_; }

TraceSpan::TraceSpan(const char* name, LatencyHistogram* latency)
    : name_(name),
      latency_(latency),
      start_us_(MonotonicMicros()),
      saved_(tls_span_context) {
  ctx_.trace_id = saved_.trace_id != 0 ? saved_.trace_id : NewId();
  ctx_.span_id = NewId();
  ctx_.parent_span_id = saved_.span_id;
  tls_span_context = ctx_;
}

TraceSpan::~TraceSpan() {
  tls_span_context = saved_;
  const uint64_t duration = MonotonicMicros() - start_us_;
  // The span's own trace id keys the exemplar: the id a /metrics scrape can
  // join against /tracez (ctx_ is already popped, so CurrentSpanContext()
  // would name the parent here).
  latency_->RecordWithExemplar(duration, ctx_.trace_id, start_us_);
  MetricsRegistry& registry = MetricsRegistry::Instance();
  ScopedSpanCollector* collector = tls_span_collector;
  if (registry.trace_enabled() || collector != nullptr) {
    TraceEvent event;
    event.name = name_;
    event.start_us = start_us_;
    event.duration_us = duration;
    event.thread = CurrentThreadHash();
    event.trace_id = ctx_.trace_id;
    event.span_id = ctx_.span_id;
    event.parent_span_id = ctx_.parent_span_id;
    if (collector != nullptr) collector->Add(event);
    if (registry.trace_enabled()) registry.RecordTraceEvent(event);
  }
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked singleton: metric pointers cached in call-site statics must stay
  // valid through every destructor that might still record.
  static MetricsRegistry* const instance = new MetricsRegistry();  // lint:allow-new
  return *instance;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    TCVS_CHECK(gauges_.find(name) == gauges_.end());
    TCVS_CHECK(latencies_.find(name) == latencies_.end());
    it = counters_
             .emplace(std::string(name), std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    TCVS_CHECK(counters_.find(name) == counters_.end());
    TCVS_CHECK(latencies_.find(name) == latencies_.end());
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetLatency(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    TCVS_CHECK(counters_.find(name) == counters_.end());
    TCVS_CHECK(gauges_.find(name) == gauges_.end());
    it = latencies_
             .emplace(std::string(name),
                      std::unique_ptr<LatencyHistogram>(new LatencyHistogram()))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  // Order matters for cross-metric invariants: histograms (and the counters
  // they pair with) are copied while the registry lock serializes
  // registration, but each value is read individually — a snapshot is a
  // consistent *inventory*, with per-metric values each atomically read.
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, latency] : latencies_) {
    snap.histograms.emplace(name, latency->Snapshot());
    std::vector<Exemplar> exemplars = latency->Exemplars();
    if (!exemplars.empty()) snap.exemplars.emplace(name, std::move(exemplars));
  }
  return snap;
}

std::string MetricsRegistry::TextFormat() const { return Snapshot().TextFormat(); }

void MetricsRegistry::RecordTraceEvent(const TraceEvent& event) {
  MutexLock lock(&trace_mu_);
  if (trace_.size() < trace_capacity_) {
    trace_.push_back(event);
    return;
  }
  trace_[trace_next_] = event;
  trace_next_ = (trace_next_ + 1) % trace_capacity_;
  trace_wrapped_ = true;
}

void MetricsRegistry::set_trace_capacity(size_t capacity) {
  capacity = std::max(kMinTraceCapacity, std::min(kMaxTraceCapacity, capacity));
  MutexLock lock(&trace_mu_);
  trace_capacity_ = capacity;
  trace_.clear();
  trace_.shrink_to_fit();
  trace_next_ = 0;
  trace_wrapped_ = false;
}

size_t MetricsRegistry::trace_capacity() const {
  MutexLock lock(&trace_mu_);
  return trace_capacity_;
}

std::vector<TraceEvent> MetricsRegistry::DrainTrace() {
  MutexLock lock(&trace_mu_);
  std::vector<TraceEvent> out;
  out.reserve(trace_.size());
  if (trace_wrapped_) {
    out.insert(out.end(), trace_.begin() + static_cast<ptrdiff_t>(trace_next_),
               trace_.end());
    out.insert(out.end(), trace_.begin(),
               trace_.begin() + static_cast<ptrdiff_t>(trace_next_));
  } else {
    out = trace_;
  }
  trace_.clear();
  trace_next_ = 0;
  trace_wrapped_ = false;
  return out;
}

void MetricsRegistry::ResetForTesting() {
  {
    MutexLock lock(&mu_);
    for (auto& [name, counter] : counters_) {
      counter->value_.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, gauge] : gauges_) {
      gauge->value_.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, latency] : latencies_) {
      MutexLock hist_lock(&latency->mu_);
      latency->hist_.Reset();
      for (Exemplar& slot : latency->exemplars_) slot = Exemplar{};
    }
  }
  MutexLock lock(&trace_mu_);
  trace_.clear();
  trace_next_ = 0;
  trace_wrapped_ = false;
  trace_capacity_ = kTraceCapacity;
}

namespace {

/// OpenMetrics exemplar suffix for one sample line: the reservoir entry
/// whose value sits closest to the reported quantile, rendered as
/// ` # {trace_id="<16 hex>"} <value> <ts-seconds>` (ts on the process
/// steady clock — exemplars from one scrape are mutually comparable).
void AppendExemplarSuffix(std::string* out, const std::vector<Exemplar>& pool,
                          uint64_t quantile_value) {
  if (pool.empty()) return;
  const Exemplar* best = &pool[0];
  for (const Exemplar& e : pool) {
    const uint64_t best_gap = best->value > quantile_value
                                  ? best->value - quantile_value
                                  : quantile_value - best->value;
    const uint64_t gap = e.value > quantile_value ? e.value - quantile_value
                                                  : quantile_value - e.value;
    if (gap < best_gap) best = &e;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                " # {trace_id=\"%016" PRIx64 "\"} %" PRIu64 " %.6f",
                best->trace_id, best->value,
                static_cast<double>(best->ts_us) / 1e6);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::TextFormat() const {
  static const std::vector<Exemplar> kNoExemplars;
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string n = ExpositionName(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " ";
    AppendU64(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : gauges) {
    std::string n = ExpositionName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " ";
    AppendI64(&out, static_cast<int64_t>(value));
    out.push_back('\n');
  }
  for (const auto& [name, hist] : histograms) {
    std::string n = ExpositionName(name);
    auto ex_it = exemplars.find(name);
    const std::vector<Exemplar>& pool =
        ex_it == exemplars.end() ? kNoExemplars : ex_it->second;
    out += "# TYPE " + n + " summary\n";
    for (double q : {0.5, 0.9, 0.99}) {
      // %g, not a fixed precision: a future 0.999 must render distinctly
      // ("0.999", never rounded into a duplicate "1" label — promcheck
      // rejects duplicate quantile labels within a family).
      char label[32];
      std::snprintf(label, sizeof(label), "{quantile=\"%g\"} ", q);
      const uint64_t value = hist.Quantile(q);
      out += n + label;
      AppendU64(&out, value);
      AppendExemplarSuffix(&out, pool, value);
      out.push_back('\n');
    }
    out += n + "_sum ";
    AppendU64(&out, hist.sum());
    out.push_back('\n');
    out += n + "_count ";
    AppendU64(&out, hist.count());
    out.push_back('\n');
  }
  return out;
}

std::string MetricsSnapshot::JsonFormat() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendU64(&out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendI64(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":";
    AppendU64(&out, hist.count());
    out += ",\"sum\":";
    AppendU64(&out, hist.sum());
    out += ",\"min\":";
    AppendU64(&out, hist.min());
    out += ",\"max\":";
    AppendU64(&out, hist.max());
    char mean[32];
    std::snprintf(mean, sizeof(mean), ",\"mean\":%.2f", hist.mean());
    out += mean;
    out += ",\"p50\":";
    AppendU64(&out, hist.p50());
    out += ",\"p90\":";
    AppendU64(&out, hist.p90());
    out += ",\"p99\":";
    AppendU64(&out, hist.p99());
    out += ",\"buckets\":";
    out += hist.BucketsJson();
    out.push_back('}');
  }
  out += "},\"exemplars\":{";
  first = true;
  for (const auto& [name, pool] : exemplars) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":[";
    bool first_ex = true;
    for (const Exemplar& e : pool) {
      if (!first_ex) out.push_back(',');
      first_ex = false;
      out += "{\"value\":";
      AppendU64(&out, e.value);
      // 64-bit ids as 16-hex-digit strings, same as the trace dump.
      char id[32];
      std::snprintf(id, sizeof(id), ",\"trace_id\":\"%016" PRIx64 "\"",
                    e.trace_id);
      out += id;
      out += ",\"ts_us\":";
      AppendU64(&out, e.ts_us);
      out += ",\"bucket\":";
      AppendU64(&out, e.bucket);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out += "}}";
  return out;
}

TraceDump TraceDump::FromEvents(const std::vector<TraceEvent>& events) {
  TraceDump dump;
  dump.events.reserve(events.size());
  for (const TraceEvent& in : events) {
    Event out;
    out.name = in.name != nullptr ? in.name : "";
    out.start_us = in.start_us;
    out.duration_us = in.duration_us;
    out.thread = in.thread;
    out.trace_id = in.trace_id;
    out.span_id = in.span_id;
    out.parent_span_id = in.parent_span_id;
    dump.events.push_back(std::move(out));
  }
  return dump;
}

namespace {

void AppendHexId(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  *out += buf;
}

}  // namespace

std::string TraceDump::ChromeTraceJson() const {
  std::vector<const Event*> sorted;
  sorted.reserve(events.size());
  for (const Event& e : events) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event* a, const Event* b) {
                     return a->start_us < b->start_us;
                   });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Event* e : sorted) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, e->name);
    out += ",\"cat\":\"tcvs\",\"ph\":\"X\",\"ts\":";
    AppendU64(&out, e->start_us);
    out += ",\"dur\":";
    AppendU64(&out, e->duration_us);
    out += ",\"pid\":1,\"tid\":";
    AppendU64(&out, e->thread);
    out += ",\"args\":{\"trace_id\":";
    AppendHexId(&out, e->trace_id);
    out += ",\"span_id\":";
    AppendHexId(&out, e->span_id);
    out += ",\"parent_span_id\":";
    AppendHexId(&out, e->parent_span_id);
    out += "}}";
  }
  out += "]}";
  return out;
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t TraceSpan::CurrentThreadHash() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace util
}  // namespace tcvs
