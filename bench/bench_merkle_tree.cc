// Experiment F2 (paper Figure 2): Merkle-tree verification objects.
//
// The paper's Figure 2 illustrates the root-to-leaf digest path and the
// claim that a single update needs only O(log n) digests. This bench
// measures exactly that: VO size (bytes) and client verification / replay
// time as the database size n grows, plus the fanout ablation from
// DESIGN.md §5.

#include <benchmark/benchmark.h>

#include "bench/benchmark_json_main.h"

#include <map>

#include "mtree/btree.h"
#include "util/random.h"

namespace {

using namespace tcvs;

Bytes NumKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%010llu", static_cast<unsigned long long>(i));
  return util::ToBytes(buf);
}

// Trees are expensive to build; cache one per (n, fanout).
const mtree::MerkleBTree& TreeOf(size_t n, size_t fanout) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<mtree::MerkleBTree>>
      cache;
  auto key = std::make_pair(n, fanout);
  auto it = cache.find(key);
  if (it == cache.end()) {
    mtree::TreeParams params{fanout, fanout};
    auto tree = std::make_unique<mtree::MerkleBTree>(params);
    util::Rng rng(n * 31 + fanout);
    for (size_t i = 0; i < n; ++i) {
      tree->Upsert(NumKey(i), rng.RandomBytes(64));
    }
    it = cache.emplace(key, std::move(tree)).first;
  }
  return *it->second;
}

void BM_ServerUpsert(benchmark::State& state) {
  const size_t n = state.range(0);
  mtree::MerkleBTree tree = TreeOf(n, 8).Clone();
  util::Rng rng(7);
  for (auto _ : state) {
    uint64_t k = rng.Uniform(n);
    benchmark::DoNotOptimize(tree.Upsert(NumKey(k), rng.RandomBytes(64)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerUpsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ProvePoint(benchmark::State& state) {
  const size_t n = state.range(0);
  const mtree::MerkleBTree& tree = TreeOf(n, 8);
  util::Rng rng(11);
  size_t vo_bytes = 0;
  size_t samples = 0;
  for (auto _ : state) {
    mtree::PointVO vo = tree.ProvePoint(NumKey(rng.Uniform(n)));
    Bytes wire = vo.Serialize();
    benchmark::DoNotOptimize(wire);
    vo_bytes += wire.size();
    ++samples;
  }
  state.counters["vo_bytes"] =
      benchmark::Counter(double(vo_bytes) / samples);
  state.counters["tree_height"] = double(tree.height());
}
BENCHMARK(BM_ProvePoint)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ClientVerifyRead(benchmark::State& state) {
  const size_t n = state.range(0);
  const mtree::MerkleBTree& tree = TreeOf(n, 8);
  mtree::PointVO vo = tree.ProvePoint(NumKey(n / 2));
  for (auto _ : state) {
    auto r = mtree::VerifyPointRead(tree.root_digest(), NumKey(n / 2), vo);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientVerifyRead)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ClientReplayUpsert(benchmark::State& state) {
  const size_t n = state.range(0);
  const mtree::MerkleBTree& tree = TreeOf(n, 8);
  mtree::PointVO vo = tree.ProvePoint(NumKey(n / 2));
  Bytes value(64, 0xAB);
  for (auto _ : state) {
    auto r = mtree::VerifyAndApplyUpsert(tree.root_digest(), tree.params(),
                                         NumKey(n / 2), value, vo);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientReplayUpsert)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// Fanout ablation (DESIGN.md §5): larger fanout = shallower tree but wider
// per-node proofs.
void BM_VerifyRead_Fanout(benchmark::State& state) {
  const size_t fanout = state.range(0);
  const size_t n = 16384;
  const mtree::MerkleBTree& tree = TreeOf(n, fanout);
  mtree::PointVO vo = tree.ProvePoint(NumKey(n / 2));
  for (auto _ : state) {
    auto r = mtree::VerifyPointRead(tree.root_digest(), NumKey(n / 2), vo);
    benchmark::DoNotOptimize(r);
  }
  state.counters["vo_bytes"] = double(vo.Serialize().size());
  state.counters["tree_height"] = double(tree.height());
}
BENCHMARK(BM_VerifyRead_Fanout)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RangeProveAndVerify(benchmark::State& state) {
  const size_t span = state.range(0);
  const size_t n = 100000;
  const mtree::MerkleBTree& tree = TreeOf(n, 8);
  size_t vo_bytes = 0, samples = 0;
  for (auto _ : state) {
    mtree::RangeVO vo = tree.ProveRange(NumKey(1000), NumKey(1000 + span - 1));
    auto rows = mtree::VerifyRangeRead(tree.root_digest(), NumKey(1000),
                                       NumKey(1000 + span - 1), vo);
    benchmark::DoNotOptimize(rows);
    vo_bytes += vo.Serialize().size();
    ++samples;
  }
  state.counters["vo_bytes"] = benchmark::Counter(double(vo_bytes) / samples);
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_RangeProveAndVerify)->Arg(10)->Arg(100)->Arg(1000);

void BM_BulkLoadVsIncremental(benchmark::State& state) {
  const size_t n = state.range(0);
  const bool bulk = state.range(1) == 1;
  std::vector<std::pair<Bytes, Bytes>> items;
  util::Rng rng(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(NumKey(i), rng.RandomBytes(32));
  for (auto _ : state) {
    if (bulk) {
      auto tree = mtree::MerkleBTree::BulkLoad(items);
      benchmark::DoNotOptimize(tree->root_digest());
    } else {
      mtree::MerkleBTree tree;
      for (const auto& [k, v] : items) tree.Upsert(k, v);
      benchmark::DoNotOptimize(tree.root_digest());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(bulk ? "bulk" : "incremental");
}
BENCHMARK(BM_BulkLoadVsIncremental)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

TCVS_BENCHMARK_JSON_MAIN("bench_merkle_tree");
