#pragma once

// The shared harness of the serving-overhead benches (bench_admin_scrape,
// bench_profiler_overhead): a served in-memory repository under closed-loop
// verified-commit load, run in timed blocks.
//
// An overhead is measured by interleaving bare and instrumented blocks and
// reporting the median of the per-pair throughput deltas, so warm-up, drift
// and a noisy neighbour on a shared host land on both arms alike instead of
// on whichever phase happened to run second.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cvs/trusted.h"
#include "net/socket.h"
#include "rpc/remote.h"

namespace tcvs {
namespace bench {

/// One timed block of load.
struct Block {
  double wall_ms = 0;
  uint64_t ops = 0;
  double ops_per_sec() const { return ops / (wall_ms / 1000.0); }
};

/// Sums blocks: the arm's total ops over its total wall time.
inline Block Sum(const std::vector<Block>& blocks) {
  Block total;
  for (const Block& b : blocks) {
    total.wall_ms += b.wall_ms;
    total.ops += b.ops;
  }
  return total;
}

/// Runs `pairs` interleaved pairs of one `bare()` and one `instrumented()`
/// block, swapping their order in every other pair (AB BA AB …) so a cost
/// that lands on whichever block of a pair runs first cancels out.
template <typename Bare, typename Instrumented>
void RunPairs(int pairs, Bare bare, Instrumented instrumented,
              std::vector<Block>* bare_blocks,
              std::vector<Block>* instrumented_blocks) {
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 1) instrumented_blocks->push_back(instrumented());
    bare_blocks->push_back(bare());
    if (i % 2 == 0) instrumented_blocks->push_back(instrumented());
  }
}

/// Median over pairs of 100·(bare − instrumented)/bare throughput: the
/// instrumented arm's slowdown in percent (negative = it ran faster).
inline double MedianDeltaPct(const std::vector<Block>& bare,
                             const std::vector<Block>& instrumented) {
  std::vector<double> deltas;
  for (size_t i = 0; i < bare.size() && i < instrumented.size(); ++i) {
    deltas.push_back(100.0 *
                     (bare[i].ops_per_sec() - instrumented[i].ops_per_sec()) /
                     bare[i].ops_per_sec());
  }
  if (deltas.empty()) return 0;
  std::sort(deltas.begin(), deltas.end());
  const size_t mid = deltas.size() / 2;
  return deltas.size() % 2 == 1 ? deltas[mid]
                                : (deltas[mid - 1] + deltas[mid]) / 2;
}

[[noreturn]] inline void Die(const char* bench, const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", bench, what.c_str());
  std::exit(1);
}

/// \brief An UntrustedServer behind rpc::Serve on an ephemeral loopback
/// port, and kClients verifying clients over their own connections, each
/// committing to its own file (so the tree stays the same size).
class ServingLoad {
 public:
  static constexpr int kClients = 4;

  explicit ServingLoad(const char* bench) : bench_(bench) {
    auto listener = net::TcpListener::Bind(0);
    if (!listener.ok()) Die(bench_, "bind: " + listener.status().ToString());
    port_ = listener->port();
    serve_thread_ = std::thread(
        [l = std::move(listener).ValueOrDie(), this]() mutable {
          rpc::ServeOptions options;
          options.num_threads = kClients;
          serve_status_ = rpc::Serve(&l, &serialized_, options);
        });
    for (int t = 0; t < kClients; ++t) {
      auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
      if (!remote.ok()) Die(bench_, "connect: " + remote.status().ToString());
      remotes_.push_back(std::move(remote).ValueOrDie());
      clients_.push_back(std::make_unique<cvs::VerifyingClient>(
          static_cast<uint32_t>(t + 1), remotes_.back().get()));
      revs_.push_back(0);
    }
  }

  ~ServingLoad() {
    clients_.clear();
    remotes_.clear();
    auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
    if (remote.ok()) (void)(*remote)->Shutdown();
    serve_thread_.join();
    if (!serve_status_.ok()) Die(bench_, "serve: " + serve_status_.ToString());
  }

  ServingLoad(const ServingLoad&) = delete;
  ServingLoad& operator=(const ServingLoad&) = delete;

  /// Every client commits back to back for `ms` milliseconds.
  Block Run(int ms) {
    std::atomic<int> failures{0};
    std::atomic<uint64_t> commits{0};
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(ms);
    std::vector<std::thread> workers;
    workers.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      workers.emplace_back([&, t] {
        const std::string path = "bench/f" + std::to_string(t);
        uint64_t done = 0;
        while (std::chrono::steady_clock::now() < deadline) {
          auto rev = clients_[t]->Commit(
              path, "payload " + std::to_string(revs_[t]), revs_[t]);
          if (!rev.ok()) {
            ++failures;
            break;
          }
          revs_[t] = *rev;
          ++done;
        }
        commits += done;
      });
    }
    for (auto& w : workers) w.join();
    const auto end = std::chrono::steady_clock::now();
    if (failures.load() != 0) {
      Die(bench_, std::to_string(failures.load()) + " failed commits");
    }
    Block b;
    b.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
    b.ops = commits.load();
    return b;
  }

 private:
  const char* bench_;
  cvs::UntrustedServer repo_;
  cvs::SerializedServer serialized_{&repo_};
  uint16_t port_ = 0;
  Status serve_status_ = Status::OK();
  std::thread serve_thread_;
  std::vector<std::unique_ptr<rpc::RemoteServer>> remotes_;
  std::vector<std::unique_ptr<cvs::VerifyingClient>> clients_;
  std::vector<uint64_t> revs_;
};

}  // namespace bench
}  // namespace tcvs
