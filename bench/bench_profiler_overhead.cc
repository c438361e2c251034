// Profiling-plane overhead at 100 Hz, measured two ways (contention
// accounting on in both phases of both — it is always-on in production):
//
//  1. Serving throughput: verified commits bare vs profiled. Clients and
//     serve threads block on the socket every round trip, so this checks
//     the profiler does not perturb the serve loop's blocking waits
//     (SA_RESTART, EINTR-safe polls, no syscall storms).
//  2. CPU-bound hashing: SHA-256 MB/s bare vs profiled. ITIMER_PROF fires
//     per unit of CPU burned, so THIS phase pays the full sampling tax —
//     each delivery is one backtrace() into a preallocated ring (~1-2 us,
//     ~0.02% of CPU at 100 Hz plus signal-delivery noise).
//
// Each measurement interleaves bare and profiled blocks and reports
// the median of the per-pair deltas. The <= 3% budget applies to both
// deltas. The committed baseline documents the measured values;
// bench_compare.py gates the ops/sec and MB/s columns, and check.sh's prof
// stage asserts the delta columns.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "bench/serving_load.h"
#include "bench/table.h"
#include "crypto/sha256.h"
#include "util/profiler.h"

using namespace tcvs;
using tcvs::bench::Block;
using tcvs::bench::Num;
using tcvs::bench::Table;

namespace {

constexpr char kBench[] = "bench_profiler_overhead";
constexpr int kWarmupMs = 500;
// Many short pairs: on a shared host a 250 ms block rarely escapes some
// neighbour's burst, so per-pair deltas swing by 10-20%; most 25 ms blocks
// do escape, and the median of 160 pairs repeats to within 2%. The sampling
// tax is spread evenly over CPU time, so a short block still pays it in
// full.
constexpr int kBlockMs = 25;
constexpr int kPairs = 160;
constexpr int kProfileHz = 100;
constexpr int kHashThreads = 2;
constexpr int kHashIters = 100;  // × 64 KiB each = 6.25 MiB per thread.
constexpr double kMiB = 1024.0 * 1024.0;

/// Hashes `iters` × 64 KiB on each of kHashThreads threads: the
/// CPU-saturating load where ITIMER_PROF actually fires at its full rate.
/// The block's ops are bytes hashed.
Block RunHashBlock(int iters) {
  const Bytes buf(64 * 1024, 0xa7);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kHashThreads);
  for (int t = 0; t < kHashThreads; ++t) {
    workers.emplace_back([&] {
      crypto::Digest d{};
      for (int i = 0; i < iters; ++i) {
        d = crypto::Sha256::Hash(buf);
      }
      // Fold the digest into a volatile sink so the loop cannot be elided.
      volatile uint8_t sink = d[0];
      (void)sink;
    });
  }
  for (auto& w : workers) w.join();
  Block b;
  b.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  b.ops = uint64_t(kHashThreads) * iters * buf.size();
  return b;
}

/// Runs `block` with the sampling profiler armed; adds its samples.
template <typename Fn>
Block Profiled(Fn block, uint64_t* samples) {
  if (Status st = util::StartCpuProfiler(kProfileHz); !st.ok()) {
    bench::Die(kBench, "profiler: " + st.ToString());
  }
  Block b = block();
  auto profile = util::StopCpuProfiler();
  if (!profile.ok()) bench::Die(kBench, "stop: " + profile.status().ToString());
  *samples += profile->samples;
  return b;
}

}  // namespace

int main() {
  bench::JsonOut json(kBench);
  bench::ServingLoad load(kBench);

  std::printf("profiling-plane overhead (verified commits, %d clients, "
              "%d Hz sampling, %d interleaved pairs of %d ms blocks)\n\n",
              bench::ServingLoad::kClients, kProfileHz, kPairs, kBlockMs);
  load.Run(kWarmupMs);  // Build the tree, warm caches and connections.
  std::vector<Block> bare, profiled;
  uint64_t samples = 0;
  auto serve = [&] { return load.Run(kBlockMs); };
  bench::RunPairs(
      kPairs, serve, [&] { return Profiled(serve, &samples); }, &bare,
      &profiled);
  const Block bare_sum = bench::Sum(bare), profiled_sum = bench::Sum(profiled);

  Table table({"phase", "commits", "wall_ms", "ops/sec", "samples",
               "delta_pct"});
  table.AddRow({"unprofiled", Num(bare_sum.ops), Num(bare_sum.wall_ms),
                Num(bare_sum.ops_per_sec()), Num(uint64_t(0)), Num(0.0)});
  table.AddRow({"profiled_100hz", Num(profiled_sum.ops),
                Num(profiled_sum.wall_ms), Num(profiled_sum.ops_per_sec()),
                Num(samples), Num(bench::MedianDeltaPct(bare, profiled))});
  table.Print();
  json.Add("profiler overhead (serving)", table);

  // CPU-bound hashing, where the sampling tax is actually paid.
  RunHashBlock(kHashIters / 4);  // Warmup.
  std::vector<Block> hash_bare, hash_profiled;
  uint64_t hash_samples = 0;
  auto hash = [] { return RunHashBlock(kHashIters); };
  bench::RunPairs(
      kPairs, hash, [&] { return Profiled(hash, &hash_samples); }, &hash_bare,
      &hash_profiled);
  const Block hb = bench::Sum(hash_bare), hp = bench::Sum(hash_profiled);

  Table hash_table({"phase", "mib_hashed", "wall_ms", "mb/sec", "samples",
                    "delta_pct"});
  hash_table.AddRow({"unprofiled", Num(hb.ops >> 20), Num(hb.wall_ms),
                     Num(hb.ops_per_sec() / kMiB), Num(uint64_t(0)), Num(0.0)});
  hash_table.AddRow({"profiled_100hz", Num(hp.ops >> 20), Num(hp.wall_ms),
                     Num(hp.ops_per_sec() / kMiB), Num(hash_samples),
                     Num(bench::MedianDeltaPct(hash_bare, hash_profiled))});
  hash_table.Print();
  json.Add("profiler overhead (cpu-bound sha256)", hash_table);
  return 0;
}
