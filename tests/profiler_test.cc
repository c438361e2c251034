// Tests for the profiling plane: the sampling CPU profiler (signal-driven —
// skipped under TSan, which owns signal delivery), the lock-contention
// profile, and the two of them surviving a live serve loop with faults
// armed (the signal-safety smoke).

#include "util/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cvs/trusted.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/mutex.h"

// TSan intercepts signal delivery and flags raw signal-handler memory
// accesses the profiler's lock-free ring makes deliberately; the SIGPROF
// sections are not meaningful under it. Contention tests stay on.
#if defined(__SANITIZE_THREAD__)
#define TCVS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TCVS_TSAN 1
#endif
#endif
#ifndef TCVS_TSAN
#define TCVS_TSAN 0
#endif

using namespace tcvs;

// The known-hot function the folded profile must name. extern "C" keeps the
// symbol unmangled and exported (CMAKE_ENABLE_EXPORTS), so dladdr resolves
// it; noinline keeps the PC inside this function rather than the caller,
// and GCC's noipa stops -O3 from cloning it into a local `.constprop`
// symbol that dladdr cannot name (Clang lacks the attribute).
#if defined(__GNUC__) && !defined(__clang__)
#define TCVS_TEST_NOIPA __attribute__((noipa))
#else
#define TCVS_TEST_NOIPA
#endif
extern "C" __attribute__((noinline)) TCVS_TEST_NOIPA uint64_t
TcvsProfilerTestSpin(uint64_t iters) {
  volatile uint64_t acc = 1;
  for (uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

namespace {

/// Burns roughly `ms` of CPU time in TcvsProfilerTestSpin. Unused under
/// TSan, where the signal-dependent tests are compiled out.
[[maybe_unused]] void SpinForMs(uint64_t ms) {
  const uint64_t deadline = util::MonotonicMicros() + ms * 1000;
  while (util::MonotonicMicros() < deadline) {
    (void)TcvsProfilerTestSpin(1 << 18);
  }
}

#if !TCVS_TSAN

TEST(ProfilerTest, StartStopIdempotence) {
  ASSERT_FALSE(util::CpuProfilerRunning());
  EXPECT_TRUE(util::StopCpuProfiler().status().IsFailedPrecondition());
  EXPECT_TRUE(util::DrainCpuProfile().status().IsFailedPrecondition());

  ASSERT_TRUE(util::StartCpuProfiler(100).ok());
  EXPECT_TRUE(util::CpuProfilerRunning());
  // Second start while running: refused, the first keeps sampling.
  EXPECT_TRUE(util::StartCpuProfiler(100).IsFailedPrecondition());
  EXPECT_TRUE(util::CpuProfilerRunning());

  auto profile = util::StopCpuProfiler();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_FALSE(util::CpuProfilerRunning());
  EXPECT_EQ(profile->hz, 100);
  // And again: a full start/stop cycle works after the first.
  ASSERT_TRUE(util::StartCpuProfiler(50).ok());
  ASSERT_TRUE(util::StopCpuProfiler().ok());
}

TEST(ProfilerTest, FoldedProfileNamesTheHotFunction) {
  ASSERT_TRUE(util::StartCpuProfiler(400).ok());
  SpinForMs(600);
  auto profile = util::StopCpuProfiler();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  // 600 ms of pure CPU at 400 Hz: expect a healthy sample count even on a
  // loaded CI machine (ITIMER_PROF counts CPU time, not wall time).
  EXPECT_GT(profile->samples, 20u);
  const std::string folded = profile->FoldedFormat();
  EXPECT_NE(folded.find("TcvsProfilerTestSpin"), std::string::npos)
      << "folded profile missing the hot symbol:\n"
      << folded.substr(0, 2000);
  // Folded lines parse: "frame;frame count".
  EXPECT_NE(folded.find(';'), std::string::npos);
  // JSON rendering carries the same symbol.
  EXPECT_NE(profile->JsonTopN(10).find("TcvsProfilerTestSpin"),
            std::string::npos);
}

TEST(ProfilerTest, DrainRidesRunningProfilerAndWindowReportsBusy) {
  ASSERT_TRUE(util::StartCpuProfiler(200).ok());
  SpinForMs(150);
  auto first = util::DrainCpuProfile();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(util::CpuProfilerRunning());  // Drain leaves it running.
  // A window on a running profiler rides it (hz ignored) and succeeds.
  std::thread window([&] {
    auto w = util::ProfileWindow(/*hz=*/999, /*seconds=*/2);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    EXPECT_EQ(w->hz, 200);  // The running frequency, not the requested one.
  });
  // Give the window time to claim the serialization slot, then collide.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto busy = util::ProfileWindow(100, 1);
  EXPECT_TRUE(busy.status().IsFailedPrecondition())
      << "concurrent windows must not queue";
  window.join();
  ASSERT_TRUE(util::StopCpuProfiler().ok());
}

#endif  // !TCVS_TSAN

TEST(ContentionTest, ConcurrentLockersFeedContentionProfile) {
  util::ResetContentionForTesting();
  util::SetContentionProfilingEnabled(true);
  static util::Mutex mu{"profiler.test"};
  std::atomic<uint64_t> shared{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        util::MutexLock lock(&mu);
        // Hold the lock long enough that someone else piles up behind it.
        const uint64_t until = util::MonotonicMicros() + 1000;
        while (util::MonotonicMicros() < until) {
          shared.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // The per-callsite table saw the waits...
  std::vector<util::ContentionSite> sites = util::ContentionProfile();
  uint64_t total_waits = 0;
  uint64_t total_us = 0;
  for (const auto& site : sites) {
    total_waits += site.waits;
    total_us += site.total_us;
  }
  EXPECT_GT(total_waits, 0u) << "8 threads × 1 ms holds: someone waited";
  EXPECT_GT(total_us, 0u);
  // ...and the JSON render names them.
  const std::string json = util::ContentionJson();
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
  EXPECT_NE(json.find("\"total_us\""), std::string::npos);

  // The named mutex also fed its metrics histogram.
  util::MetricsSnapshot snap =
      util::MetricsRegistry::Instance().Snapshot();
  auto it = snap.histograms.find("lock.profiler.test.contention_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GT(it->second.count(), 0u);
}

TEST(ContentionTest, DisabledContentionRecordsNothing) {
  util::SetContentionProfilingEnabled(false);
  util::ResetContentionForTesting();
  static util::Mutex mu{"profiler.test.disabled"};
  std::thread holder([&] {
    util::MutexLock lock(&mu);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    util::MutexLock lock(&mu);  // Contends, but accounting is off.
  }
  holder.join();
  EXPECT_TRUE(util::ContentionProfile().empty());
  util::SetContentionProfilingEnabled(true);  // Restore for later tests.
}

#if !TCVS_TSAN

// Signal-safety smoke: SIGPROF fires across the whole process — serve
// workers mid-syscall, WAL-less transact execution, retry backoff sleeps,
// fault-injected connection drops — while verified traffic flows. Nothing
// may deadlock, crash, or fail verification.
TEST(ProfilerTest, SignalSafetySmokeWhileServingWithFaults) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  cvs::UntrustedServer repo;
  std::thread server_thread(
      [l = std::move(listener).ValueOrDie(), &repo]() mutable {
        (void)rpc::Serve(&l, &repo);
      });

  // Drop the connection after every 7th executed request WITHOUT replying:
  // the client replays into the dedup cache under SIGPROF fire.
  util::FaultInjector::Instance().Arm("rpc.serve.drop_after",
                                      util::FaultSpec::Nth(7));

  ASSERT_TRUE(util::StartCpuProfiler(250).ok());
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient client(1, remote->get());
  for (int i = 0; i < 30; ++i) {
    auto rev = client.Commit("smoke/file", "content " + std::to_string(i),
                             static_cast<uint64_t>(i));
    ASSERT_TRUE(rev.ok()) << "commit " << i << ": " << rev.status().ToString();
  }
  auto profile = util::StopCpuProfiler();
  ASSERT_TRUE(profile.ok());

  util::FaultInjector::Instance().Disarm("rpc.serve.drop_after");
  auto shutdown_conn = rpc::RemoteServer::Connect("127.0.0.1", port);
  ASSERT_TRUE(shutdown_conn.ok());
  ASSERT_TRUE((*shutdown_conn)->Shutdown().ok());
  server_thread.join();
}

#endif  // !TCVS_TSAN

}  // namespace
