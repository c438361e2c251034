#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcvs {
namespace util {

/// \file
/// Process-wide observability: a thread-safe registry of named counters,
/// gauges, and latency histograms, plus RAII trace spans.
///
/// Naming convention (enforced by tools/lint.py, rule `metric-name`):
/// lowercase dotted `component.metric_name`, e.g.
/// `rpc.serve.reply_cache.hits_total`. Suffixes follow Prometheus idiom:
/// `_total` for counters, `_us` / `_rounds` / `_bytes` for histogram units.
/// Every metric is created through MetricsRegistry (the constructors are
/// private), so the registry's snapshot is always the complete inventory.
///
/// Hot-path cost: counters and gauges are single relaxed atomics; histograms
/// take one per-metric util::Mutex (never the registry-wide lock). Call
/// sites cache the metric pointer in a function-local static, so the
/// name lookup happens once per process:
///
/// \code
///   static Counter* const hits =
///       MetricsRegistry::Instance().GetCounter("rpc.serve.cache.hits_total");
///   hits->Increment();
/// \endcode
///
/// Lock ranking: subsystem locks (serve `mu_`/`queue_mu_`, DurableServer
/// `mu_`) may be held while touching metrics; the registry lock and the
/// per-metric locks are LEAVES — no metrics code calls back into any
/// subsystem, so the ordering `subsystem lock → registry mu_ → metric mu_`
/// is acyclic by construction (see ARCHITECTURE.md, "Observability").

/// \brief Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;

  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level (queue depth, active workers). Lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<int64_t> value_{0};
};

/// \brief One latency sample kept alongside a histogram so a tail spike on
/// `/metrics` links to a joinable trace id (OpenMetrics exemplar semantics).
/// `ts_us` is the recording span's start on the process steady clock.
struct Exemplar {
  uint64_t value = 0;
  uint64_t trace_id = 0;
  uint64_t ts_us = 0;
  /// Histogram bucket `value` landed in (the reservoir's slot key).
  uint32_t bucket = 0;
};

/// \brief A util::Histogram behind its own mutex: recording contends only
/// with other recorders of the SAME metric and with snapshots, never with
/// the registry or other metrics.
///
/// Alongside the buckets it keeps a tiny bounded exemplar reservoir:
/// RecordWithExemplar stores its (value, trace_id, ts) sample in slot
/// `bucket % kExemplarSlots`, overwriting that slot's previous occupant.
/// The policy is deterministic — the reservoir after a sequence of records
/// is a pure function of the sequence — and keyed by bucket, so slow
/// outliers land in different slots than the fast common case instead of
/// being churned out by it.
class LatencyHistogram {
 public:
  static constexpr size_t kExemplarSlots = 4;

  void Record(uint64_t value) {
    MutexLock lock(&mu_);
    hist_.Record(value);
  }

  /// Record() plus exemplar capture. A zero `trace_id` (no ambient span)
  /// records the value only — an exemplar nobody can join is noise.
  void RecordWithExemplar(uint64_t value, uint64_t trace_id, uint64_t ts_us) {
    MutexLock lock(&mu_);
    hist_.Record(value);
    if (trace_id == 0) return;
    const uint32_t bucket = static_cast<uint32_t>(Histogram::BucketFor(value));
    Exemplar& slot = exemplars_[bucket % kExemplarSlots];
    slot.value = value;
    slot.trace_id = trace_id;
    slot.ts_us = ts_us;
    slot.bucket = bucket;
  }

  Histogram Snapshot() const {
    MutexLock lock(&mu_);
    return hist_;
  }

  /// The occupied reservoir slots, in slot order (empty slots elided).
  std::vector<Exemplar> Exemplars() const {
    MutexLock lock(&mu_);
    std::vector<Exemplar> out;
    for (const Exemplar& e : exemplars_) {
      if (e.trace_id != 0) out.push_back(e);
    }
    return out;
  }

 private:
  friend class MetricsRegistry;
  LatencyHistogram() = default;

  mutable Mutex mu_;
  Histogram hist_ TCVS_GUARDED_BY(mu_);
  Exemplar exemplars_[kExemplarSlots] TCVS_GUARDED_BY(mu_);
};

/// \brief One completed trace span in the ring-buffer event trace.
struct TraceEvent {
  /// Span name (a string literal; TCVS_SPAN guarantees static lifetime).
  const char* name = nullptr;
  /// Span start, microseconds on the process steady clock.
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  /// Hashed std::thread::id of the recording thread.
  uint32_t thread = 0;
  /// \name Causal identity (Dapper-style). trace_id groups every span caused
  /// by one root operation, across threads and — via the RPC header — across
  /// processes. parent_span_id is 0 for root spans.
  /// @{
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// @}
};

/// \brief The identity of the active span on the current thread. TCVS_SPAN
/// pushes a fresh context on entry and restores the previous one on exit;
/// the RPC layer copies it into request headers (client) and installs the
/// received one via ScopedTraceContext (server).
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// The active span context of the calling thread ({0,0,0} outside any span).
SpanContext CurrentSpanContext();

/// A fresh process-unique non-zero 64-bit id (also usable as a span id).
uint64_t NewTraceId();

/// \brief Installs a remote caller's trace context as the thread's active
/// context for the current scope, so every TCVS_SPAN below joins the
/// caller's trace; restores the previous context on destruction. A zero
/// `trace_id` starts a fresh trace (legacy peers that predate the trace
/// header still get coherent server-side traces).
class ScopedTraceContext {
 public:
  ScopedTraceContext(uint64_t trace_id, uint64_t span_id);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  SpanContext saved_;
};

/// \brief Collects every span that FINISHES on this thread while the
/// collector is installed (bounded at kMaxSpans, oldest kept), regardless
/// of whether ring tracing is enabled. The serve loop installs one per
/// request when slow-op capture is armed, so a request that blows past
/// `--slow-op-us` can attach its own span subtree to the slow-op record.
/// Nests: an inner collector shadows the outer for its lifetime.
class ScopedSpanCollector {
 public:
  static constexpr size_t kMaxSpans = 128;

  ScopedSpanCollector();
  ~ScopedSpanCollector();

  ScopedSpanCollector(const ScopedSpanCollector&) = delete;
  ScopedSpanCollector& operator=(const ScopedSpanCollector&) = delete;

  /// The collected spans, in completion order (children before parents).
  std::vector<TraceEvent> Take() { return std::move(events_); }

 private:
  friend class TraceSpan;
  void Add(const TraceEvent& event) {
    if (events_.size() < kMaxSpans) events_.push_back(event);
  }

  std::vector<TraceEvent> events_;
  ScopedSpanCollector* prev_;
};

/// \brief A drained copy of the trace ring, detached from the registry:
/// safe to keep past the drain and render as Chrome trace-event JSON
/// (chrome://tracing, Perfetto) — the `/tracez` body.
struct TraceDump {
  /// TraceEvent with an owned name — dumps outlive the emitting process.
  struct Event {
    std::string name;
    uint64_t start_us = 0;
    uint64_t duration_us = 0;
    uint32_t thread = 0;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
  };
  std::vector<Event> events;

  static TraceDump FromEvents(const std::vector<TraceEvent>& events);

  /// Chrome trace-event JSON: {"traceEvents":[{"name","ph":"X","ts","dur",
  /// "pid","tid","args":{"trace_id",...}}]} with events sorted by start
  /// time. Ids are rendered as 16-hex-digit strings (64-bit ids do not fit
  /// exactly in JSON numbers).
  std::string ChromeTraceJson() const;
};

/// \brief Point-in-time copy of every registered metric, detached from the
/// registry: safe to keep, diff (Histogram::DeltaSince) and render.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;
  /// Exemplar reservoirs of histograms that have any (same keys as
  /// `histograms`; absent key = empty reservoir).
  std::map<std::string, std::vector<Exemplar>> exemplars;

  /// Prometheus-style text exposition (`tcvs_` prefix, dots → underscores,
  /// histograms as summaries with quantile labels). Quantile samples carry
  /// an OpenMetrics exemplar suffix — `# {trace_id="<16 hex>"} <value>
  /// <ts-seconds>` — picking the reservoir sample closest to the reported
  /// quantile, so a p99 spike links to a joinable trace id. Validated by
  /// tools/promcheck.py.
  std::string TextFormat() const;

  /// One JSON object (single line, no trailing newline) — the `/varz` body
  /// and the `--log-json` payload: {"counters":{…},"gauges":{…},
  /// "histograms":{…},"exemplars":{…}}. Each histogram carries its summary
  /// stats plus the sparse `"buckets"` array Histogram::FromJson reads back.
  std::string JsonFormat() const;
};

/// \brief The process-wide metric registry. Get-or-create returns stable
/// pointers that live until process exit (ResetForTesting zeroes values but
/// never invalidates pointers, so cached call-site statics stay safe).
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// \name Get-or-create by name. A name is permanently one kind: asking
  /// for an existing name with a different kind aborts (a programming
  /// error caught in every test run).
  /// @{
  Counter* GetCounter(std::string_view name) TCVS_EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) TCVS_EXCLUDES(mu_);
  LatencyHistogram* GetLatency(std::string_view name) TCVS_EXCLUDES(mu_);
  /// @}

  MetricsSnapshot Snapshot() const TCVS_EXCLUDES(mu_);

  /// Prometheus-style exposition of the current state (Snapshot().TextFormat).
  std::string TextFormat() const TCVS_EXCLUDES(mu_);

  /// \name Ring-buffer event trace (off by default; ~free when disabled —
  /// one relaxed atomic load per completed span).
  /// @{
  void set_trace_enabled(bool enabled) {
    trace_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_relaxed);
  }
  void RecordTraceEvent(const TraceEvent& event) TCVS_EXCLUDES(trace_mu_);
  /// Returns the buffered events oldest-first and clears the buffer.
  std::vector<TraceEvent> DrainTrace() TCVS_EXCLUDES(trace_mu_);
  /// Resizes the trace ring, clamped to [kMinTraceCapacity,
  /// kMaxTraceCapacity]. Clears buffered events (the ring invariants are
  /// tied to the capacity they were recorded under).
  void set_trace_capacity(size_t capacity) TCVS_EXCLUDES(trace_mu_);
  size_t trace_capacity() const TCVS_EXCLUDES(trace_mu_);
  /// @}

  /// Zeroes every counter/gauge/histogram, clears the trace, and restores
  /// the default trace capacity, WITHOUT unregistering anything: pointers
  /// cached by call sites stay valid.
  void ResetForTesting() TCVS_EXCLUDES(mu_, trace_mu_);

  /// Default number of events the trace ring holds before overwriting the
  /// oldest (tunable per process via set_trace_capacity / tcvsd
  /// --trace-capacity).
  static constexpr size_t kTraceCapacity = 4096;
  static constexpr size_t kMinTraceCapacity = 64;
  static constexpr size_t kMaxTraceCapacity = 1u << 20;

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TCVS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TCVS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_ TCVS_GUARDED_BY(mu_);

  std::atomic<bool> trace_enabled_{false};
  mutable Mutex trace_mu_;
  std::vector<TraceEvent> trace_ TCVS_GUARDED_BY(trace_mu_);
  size_t trace_next_ TCVS_GUARDED_BY(trace_mu_) = 0;
  bool trace_wrapped_ TCVS_GUARDED_BY(trace_mu_) = false;
  size_t trace_capacity_ TCVS_GUARDED_BY(trace_mu_) = kTraceCapacity;
};

/// Microseconds since an arbitrary process-local epoch (steady clock).
uint64_t MonotonicMicros();

/// \brief RAII span: times a scope, records the elapsed microseconds into a
/// latency histogram on destruction, and (when tracing is enabled) appends a
/// TraceEvent. On construction it pushes a fresh SpanContext — inheriting
/// the current trace (or starting one) and parenting itself under the
/// enclosing span — and restores the previous context on destruction.
/// Context maintenance always happens (audit events need trace ids even
/// when event recording is off); the ring write is gated on trace_enabled.
/// Use via TCVS_SPAN.
class TraceSpan {
 public:
  TraceSpan(const char* name, LatencyHistogram* latency);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  static uint32_t CurrentThreadHash();

 private:
  const char* name_;
  LatencyHistogram* latency_;
  uint64_t start_us_;
  SpanContext saved_;  // The enclosing context, restored on destruction.
  SpanContext ctx_;    // This span's own identity.
};

#define TCVS_SPAN_CONCAT_INNER_(a, b) a##b
#define TCVS_SPAN_CONCAT_(a, b) TCVS_SPAN_CONCAT_INNER_(a, b)

/// Times the enclosing scope into the latency histogram `name ".latency_us"`
/// and the event trace. `name` MUST be a string literal (the trace stores
/// the pointer) matching the metric-name lint rule, e.g.
/// `TCVS_SPAN("mtree.vo.verify_point");`.
#define TCVS_SPAN(name)                                                       \
  static ::tcvs::util::LatencyHistogram* const TCVS_SPAN_CONCAT_(             \
      tcvs_span_hist_, __LINE__) =                                            \
      ::tcvs::util::MetricsRegistry::Instance().GetLatency(name              \
                                                           ".latency_us");    \
  ::tcvs::util::TraceSpan TCVS_SPAN_CONCAT_(tcvs_span_, __LINE__)(            \
      name, TCVS_SPAN_CONCAT_(tcvs_span_hist_, __LINE__))

}  // namespace util
}  // namespace tcvs
