// Experiment E8: cost of the cryptographic substrate.
//
// Protocol I's per-operation signature and Protocol III's per-epoch blob
// signatures ride on the hash-based schemes built here; this bench gives
// the primitive costs behind the protocol overheads of E6. The Winternitz
// benches run the one parameter set, w = 4 (the "/4" in their names).

#include <benchmark/benchmark.h>

#include "bench/benchmark_json_main.h"

#include "crypto/hmac.h"
#include "crypto/merkle_sig.h"
#include "crypto/sha256.h"
#include "crypto/winternitz.h"
#include "util/random.h"

namespace {

using namespace tcvs;
using namespace tcvs::crypto;

void BM_Sha256(benchmark::State& state) {
  util::Rng rng(1);
  Bytes data = rng.RandomBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(4096)->Arg(65536);

// Runtime-dispatch ablation: the same single-shot hash forced onto each
// available engine (scalar portable vs SHA-NI). The gap is the fast path's
// whole value; on hosts without SHA-NI the forced row self-skips.
void BM_Sha256Engine(benchmark::State& state) {
  Sha256Engine engine = static_cast<Sha256Engine>(state.range(0));
  if (!Sha256EngineSupported(engine)) {
    state.SkipWithError("engine not supported on this host");
    return;
  }
  ForceSha256Engine(engine);
  util::Rng rng(1);
  Bytes data = rng.RandomBytes(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  ResetSha256Engine();
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(Sha256EngineName(engine));
}
BENCHMARK(BM_Sha256Engine)
    ->Args({0, 32})
    ->Args({1, 32})
    ->Args({0, 4096})
    ->Args({1, 4096});

// Multi-buffer hashing: the WOTS chain-walk substrate. One call hashes N
// independent 32-byte messages; compare against N single-shot calls.
void BM_Sha256HashMany(benchmark::State& state) {
  const size_t n = state.range(0);
  const bool batched = state.range(1) == 1;
  util::Rng rng(8);
  std::vector<Bytes> messages;
  messages.reserve(n);
  for (size_t i = 0; i < n; ++i) messages.push_back(rng.RandomBytes(32));
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(HashMany(messages));
    } else {
      std::vector<Digest> digests;
      digests.reserve(n);
      for (const auto& m : messages) digests.push_back(Sha256::Hash(m));
      benchmark::DoNotOptimize(digests);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(batched ? "HashMany" : "serial");
}
BENCHMARK(BM_Sha256HashMany)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_HmacSha256(benchmark::State& state) {
  util::Rng rng(2);
  Bytes key = rng.RandomBytes(32);
  Bytes data = rng.RandomBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(4096);

void BM_WotsKeygen(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    WinternitzSigner signer(rng.RandomBytes(32));
    benchmark::DoNotOptimize(signer.public_key());
  }
  WinternitzSigner probe(util::ToBytes("probe"));
  Bytes sig = *probe.Sign(util::ToBytes("m"));
  state.counters["sig_bytes"] = double(sig.size());
}
BENCHMARK(BM_WotsKeygen)->Arg(kWotsW);

void BM_WotsSign(benchmark::State& state) {
  util::Rng rng(6);
  Bytes msg = util::ToBytes("root digest");
  for (auto _ : state) {
    state.PauseTiming();
    WinternitzSigner signer(rng.RandomBytes(32));
    state.ResumeTiming();
    benchmark::DoNotOptimize(*signer.Sign(msg));
  }
}
BENCHMARK(BM_WotsSign)->Arg(kWotsW);

// The WOTS half of an MSS verification: recompute the implied public key.
void BM_WotsVerify(benchmark::State& state) {
  WinternitzSigner signer(util::ToBytes("wots-bench"));
  Bytes msg = util::ToBytes("root digest");
  Bytes sig = *signer.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WinternitzSigner::PublicKeyFromSignature(msg, sig));
  }
}
BENCHMARK(BM_WotsVerify)->Arg(kWotsW);

void BM_MssKeygen(benchmark::State& state) {
  const int height = static_cast<int>(state.range(0));
  util::Rng rng(7);
  for (auto _ : state) {
    MerkleSigner signer(rng.RandomBytes(32), height);
    benchmark::DoNotOptimize(signer.public_key());
  }
  state.counters["signatures_per_key"] = double(1ULL << height);
}
BENCHMARK(BM_MssKeygen)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_MssSign(benchmark::State& state) {
  MerkleSigner signer(util::ToBytes("mss-bench"), /*height=*/12);
  Bytes msg = util::ToBytes("h(M(D) || ctr)");
  size_t sig_bytes = 0;
  for (auto _ : state) {
    auto sig = signer.Sign(msg);
    if (!sig.ok()) {  // Exhausted: restart with a fresh key outside timing.
      state.PauseTiming();
      signer = MerkleSigner(util::ToBytes("mss-bench"), 12);
      state.ResumeTiming();
      continue;
    }
    sig_bytes = sig->size();
    benchmark::DoNotOptimize(*sig);
  }
  state.counters["sig_bytes"] = double(sig_bytes);
}
BENCHMARK(BM_MssSign);

void BM_MssVerify(benchmark::State& state) {
  MerkleSigner signer(util::ToBytes("mss-bench2"), /*height=*/8);
  Bytes msg = util::ToBytes("h(M(D) || ctr)");
  Bytes sig = *signer.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MerkleSigner::VerifySignature(signer.public_key(), msg, sig));
  }
}
BENCHMARK(BM_MssVerify);

}  // namespace

TCVS_BENCHMARK_JSON_MAIN("bench_crypto");
