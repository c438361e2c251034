// Tests for the util::MetricsRegistry observability layer: registry
// get-or-create semantics, exact counting under contention (run under TSan
// via the tsan preset — names contain "Concurrent" to match TSAN_FILTER),
// the trace ring buffer, and the snapshot exposition formats (Prometheus
// text, and the /varz JSON whose histogram buckets parse back exactly).

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "util/jsonish.h"

namespace tcvs {
namespace util {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Instance().ResetForTesting(); }
  void TearDown() override { MetricsRegistry::Instance().ResetForTesting(); }
};

TEST_F(MetricsTest, GetOrCreateReturnsStablePointer) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* a = reg.GetCounter("test.metrics.stable_total");
  Counter* b = reg.GetCounter("test.metrics.stable_total");
  EXPECT_EQ(a, b);

  Gauge* g1 = reg.GetGauge("test.metrics.stable_gauge");
  Gauge* g2 = reg.GetGauge("test.metrics.stable_gauge");
  EXPECT_EQ(g1, g2);

  LatencyHistogram* l1 = reg.GetLatency("test.metrics.stable_us");
  LatencyHistogram* l2 = reg.GetLatency("test.metrics.stable_us");
  EXPECT_EQ(l1, l2);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsPointersValid) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* c = reg.GetCounter("test.metrics.reset_total");
  Gauge* g = reg.GetGauge("test.metrics.reset_gauge");
  LatencyHistogram* l = reg.GetLatency("test.metrics.reset_us");
  c->Increment(7);
  g->Set(-3);
  l->Record(42);

  reg.ResetForTesting();

  // The same pointers still work (call-site statics cache them for the
  // process lifetime) and read zero.
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(l->Snapshot().count(), 0u);
  EXPECT_EQ(reg.GetCounter("test.metrics.reset_total"), c);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST_F(MetricsTest, GaugeTracksLevel) {
  Gauge* g = MetricsRegistry::Instance().GetGauge("test.metrics.level");
  g->Set(10);
  g->Increment();
  g->Increment();
  g->Decrement();
  g->Add(-5);
  EXPECT_EQ(g->value(), 6);
}

// Eight threads hammer one counter, one gauge, and one histogram. Counter
// sums must be EXACT (relaxed atomics lose no increments), the gauge must
// return to its starting level, and the histogram must hold every sample.
TEST_F(MetricsTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* c = reg.GetCounter("test.metrics.concurrent_total");
  Gauge* g = reg.GetGauge("test.metrics.concurrent_gauge");
  LatencyHistogram* l = reg.GetLatency("test.metrics.concurrent_us");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        g->Increment();
        l->Record(static_cast<uint64_t>(t));
        g->Decrement();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(c->value(), uint64_t{kThreads} * kIters);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(l->Snapshot().count(), uint64_t{kThreads} * kIters);
}

// Racing get-or-create on the same names must agree on one object per name;
// every thread's increments land on the shared instance.
TEST_F(MetricsTest, ConcurrentGetOrCreateConverges) {
  constexpr int kThreads = 8;
  MetricsRegistry& reg = MetricsRegistry::Instance();
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter* c = reg.GetCounter("test.metrics.race_total");
      c->Increment();
      seen[t] = c;
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), uint64_t{kThreads});
}

// Concurrent TCVS_SPAN use with tracing enabled: spans record into the same
// latency histogram and trace buffer without loss (histogram count is exact;
// the ring buffer holds min(total, capacity) events).
TEST_F(MetricsTest, ConcurrentSpansRecordExactly) {
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.set_trace_enabled(true);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        TCVS_SPAN("test.metrics.span");
      }
    });
  }
  for (auto& th : threads) th.join();
  reg.set_trace_enabled(false);

  LatencyHistogram* l = reg.GetLatency("test.metrics.span.latency_us");
  EXPECT_EQ(l->Snapshot().count(), uint64_t{kThreads} * kIters);
  std::vector<TraceEvent> trace = reg.DrainTrace();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kIters;
  EXPECT_EQ(trace.size(),
            std::min<uint64_t>(kTotal, MetricsRegistry::kTraceCapacity));
  for (const TraceEvent& e : trace) {
    EXPECT_STREQ(e.name, "test.metrics.span");
  }
}

TEST_F(MetricsTest, TraceRingBufferWrapsOldestFirst) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.set_trace_enabled(true);
  const size_t total = MetricsRegistry::kTraceCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    reg.RecordTraceEvent({"test.metrics.wrap", /*start_us=*/i,
                          /*duration_us=*/1, /*thread=*/0});
  }
  std::vector<TraceEvent> trace = reg.DrainTrace();
  reg.set_trace_enabled(false);

  ASSERT_EQ(trace.size(), MetricsRegistry::kTraceCapacity);
  // Oldest surviving event is #100; order is monotone in start_us.
  EXPECT_EQ(trace.front().start_us, 100u);
  EXPECT_EQ(trace.back().start_us, total - 1);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].start_us, trace[i - 1].start_us + 1);
  }
  // Drain clears: the second drain is empty.
  EXPECT_TRUE(reg.DrainTrace().empty());
}

TEST_F(MetricsTest, TraceDisabledRecordsNothing) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  ASSERT_FALSE(reg.trace_enabled());
  { TCVS_SPAN("test.metrics.disabled_span"); }
  EXPECT_TRUE(reg.DrainTrace().empty());
  // The latency histogram still records regardless of tracing.
  EXPECT_EQ(
      reg.GetLatency("test.metrics.disabled_span.latency_us")->Snapshot().count(),
      1u);
}

TEST_F(MetricsTest, SpanContextNestsParentChild) {
  // Outside any span there is no active context.
  EXPECT_EQ(CurrentSpanContext().trace_id, 0u);
  uint64_t outer_trace = 0, outer_span = 0;
  {
    TCVS_SPAN("test.metrics.outer");
    SpanContext outer = CurrentSpanContext();
    outer_trace = outer.trace_id;
    outer_span = outer.span_id;
    EXPECT_NE(outer.trace_id, 0u);
    EXPECT_NE(outer.span_id, 0u);
    EXPECT_EQ(outer.parent_span_id, 0u);  // Root span of a fresh trace.
    {
      TCVS_SPAN("test.metrics.inner");
      SpanContext inner = CurrentSpanContext();
      EXPECT_EQ(inner.trace_id, outer_trace);  // Same trace...
      EXPECT_NE(inner.span_id, outer_span);    // ...new span...
      EXPECT_EQ(inner.parent_span_id, outer_span);  // ...parented correctly.
    }
    // Inner scope exit restores the outer context.
    EXPECT_EQ(CurrentSpanContext().span_id, outer_span);
  }
  EXPECT_EQ(CurrentSpanContext().trace_id, 0u);
}

TEST_F(MetricsTest, ScopedTraceContextAdoptsRemoteTrace) {
  {
    ScopedTraceContext remote(/*trace_id=*/42, /*span_id=*/7);
    SpanContext ctx = CurrentSpanContext();
    EXPECT_EQ(ctx.trace_id, 42u);
    EXPECT_EQ(ctx.span_id, 7u);
    {
      TCVS_SPAN("test.metrics.handler");
      SpanContext handler = CurrentSpanContext();
      EXPECT_EQ(handler.trace_id, 42u);     // Joined the caller's trace.
      EXPECT_EQ(handler.parent_span_id, 7u);  // Child of the caller's span.
    }
  }
  EXPECT_EQ(CurrentSpanContext().trace_id, 0u);
}

TEST_F(MetricsTest, ScopedTraceContextZeroTraceStartsFresh) {
  // A v1 peer sends all-zero context: the handler still gets a real trace.
  ScopedTraceContext remote(/*trace_id=*/0, /*span_id=*/0);
  EXPECT_NE(CurrentSpanContext().trace_id, 0u);
}

TEST_F(MetricsTest, TraceEventsCarrySpanIdentity) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.set_trace_enabled(true);
  {
    TCVS_SPAN("test.metrics.id_outer");
    TCVS_SPAN("test.metrics.id_inner");
  }
  std::vector<TraceEvent> trace = reg.DrainTrace();
  reg.set_trace_enabled(false);
  ASSERT_EQ(trace.size(), 2u);
  // Spans close inner-first, so the inner event records first.
  const TraceEvent& inner = trace[0];
  const TraceEvent& outer = trace[1];
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_NE(inner.span_id, 0u);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(outer.parent_span_id, 0u);
}

TEST_F(MetricsTest, TraceCapacityIsClampedAndResizes) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.set_trace_capacity(1);
  EXPECT_EQ(reg.trace_capacity(), MetricsRegistry::kMinTraceCapacity);
  reg.set_trace_capacity(size_t{1} << 40);
  EXPECT_EQ(reg.trace_capacity(), MetricsRegistry::kMaxTraceCapacity);
  reg.set_trace_capacity(128);
  ASSERT_EQ(reg.trace_capacity(), 128u);

  reg.set_trace_enabled(true);
  for (size_t i = 0; i < 300; ++i) {
    reg.RecordTraceEvent({"test.metrics.cap", /*start_us=*/i,
                          /*duration_us=*/1, /*thread=*/0});
  }
  std::vector<TraceEvent> trace = reg.DrainTrace();
  reg.set_trace_enabled(false);
  ASSERT_EQ(trace.size(), 128u);
  EXPECT_EQ(trace.front().start_us, 300u - 128u);  // Oldest evicted first.

  reg.ResetForTesting();
  EXPECT_EQ(reg.trace_capacity(), MetricsRegistry::kTraceCapacity);
}

TEST_F(MetricsTest, ChromeTraceJsonHasCompleteEvents) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.set_trace_enabled(true);
  { TCVS_SPAN("test.metrics.chrome_span"); }
  TraceDump dump = TraceDump::FromEvents(reg.DrainTrace());
  reg.set_trace_enabled(false);
  ASSERT_EQ(dump.events.size(), 1u);
  const std::string json = dump.ChromeTraceJson();
  // Chrome trace-event format: X-phase events with 16-hex-digit id strings
  // (64-bit ids as JSON numbers would lose precision past 2^53).
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.metrics.chrome_span\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  char id[32];
  std::snprintf(id, sizeof(id), "\"trace_id\":\"%016llx\"",
                (unsigned long long)dump.events[0].trace_id);
  EXPECT_NE(json.find(id), std::string::npos);
}

TEST_F(MetricsTest, TextFormatIsPrometheusStyle) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("test.fmt.requests_total")->Increment(3);
  reg.GetGauge("test.fmt.queue_depth")->Set(2);
  LatencyHistogram* l = reg.GetLatency("test.fmt.latency_us");
  for (uint64_t v = 1; v <= 100; ++v) l->Record(v);

  const std::string text = reg.TextFormat();
  EXPECT_NE(text.find("# TYPE tcvs_test_fmt_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("tcvs_test_fmt_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("tcvs_test_fmt_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tcvs_test_fmt_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("tcvs_test_fmt_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tcvs_test_fmt_latency_us_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("tcvs_test_fmt_latency_us_sum 5050"), std::string::npos);
}

TEST_F(MetricsTest, JsonFormatIsSingleLineWithAllSections) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("test.json.hits_total")->Increment(5);
  reg.GetGauge("test.json.level")->Set(-4);
  reg.GetLatency("test.json.latency_us")->Record(10);

  const std::string json = reg.Snapshot().JsonFormat();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hits_total\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.level\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// The /varz body carries every histogram's sparse buckets, and reading
// them back yields the same histogram — the contract `tcvs top`'s interval
// quantiles (DeltaSince over two scrapes) rely on.
TEST_F(MetricsTest, VarzHistogramBucketsParseBackToSameQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  LatencyHistogram* l = reg.GetLatency("test.varz.latency_us");
  for (uint64_t v = 0; v < 1000; v += 7) l->Record(v);
  l->Record(1u << 30);  // A far outlier in a high bucket.
  reg.GetLatency("test.varz.empty_us");

  const MetricsSnapshot before = reg.Snapshot();
  auto root = ParseJson(before.JsonFormat());
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* hists = root->Get("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->object().size(), before.histograms.size());
  for (const auto& [name, hist] : before.histograms) {
    const JsonValue* json = hists->Get(name);
    ASSERT_NE(json, nullptr) << name;
    auto back = Histogram::FromJson(*json);
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(back->count(), hist.count()) << name;
    EXPECT_EQ(back->sum(), hist.sum()) << name;
    EXPECT_EQ(back->min(), hist.min()) << name;
    EXPECT_EQ(back->max(), hist.max()) << name;
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(back->Quantile(q), hist.Quantile(q)) << name << " q=" << q;
    }
    // Interval quantiles survive too: diffing the parsed copy gives what
    // diffing the original gives.
    EXPECT_EQ(back->DeltaSince(Histogram()).p99(),
              hist.DeltaSince(Histogram()).p99())
        << name;
  }
}

TEST_F(MetricsTest, VarzHistogramRejectsMalformedBuckets) {
  auto parse = [](const std::string& text) -> Status {
    auto json = ParseJson(text);
    if (!json.ok()) return json.status();
    return Histogram::FromJson(*json).status();
  };
  EXPECT_TRUE(parse(R"({"count":3,"sum":6,"min":1,"max":3,)"
                    R"("buckets":[[1,1],[2,1],[3,1]]})")
                  .ok());
  // Bucket counts must sum to `count`.
  EXPECT_FALSE(parse(R"({"count":4,"sum":6,"min":1,"max":3,)"
                     R"("buckets":[[1,1],[2,1],[3,1]]})")
                   .ok());
  // Bucket index must be an integer below the bucket count (257).
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[257,1]]})").ok());
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[-1,1]]})").ok());
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[1.5,1]]})").ok());
  // Entries must be [index,count] pairs of numbers.
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[1]]})").ok());
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[["1",1]]})")
          .ok());
  EXPECT_FALSE(
      parse(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[1,1]})").ok());
  // The bucket array itself is required.
  EXPECT_FALSE(parse(R"({"count":0,"sum":0,"min":0,"max":0})").ok());
  EXPECT_FALSE(parse(R"({"count":0,"buckets":{}})").ok());
}

}  // namespace
}  // namespace util
}  // namespace tcvs
