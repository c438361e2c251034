// Admin-plane scrape overhead: verified commit throughput with and without
// a 10 Hz /metrics scraper attached.
//
// The observability plane's whole budget is "free when you don't look,
// nearly free when you do": the admin server runs its own listener thread
// and answers scrapes from a registry snapshot, so a Prometheus-style
// scraper must not perturb the serving hot path. This bench drives the
// same verified-commit load in interleaved timed blocks — bare, and with a
// scraper GETting /metrics every 100 ms — and reports the median of the
// per-pair throughput deltas. The budget is ≤5%: check.sh's obs
// stage asserts the delta column, and bench_compare.py gates the ops/sec
// columns against the committed baseline.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "bench/serving_load.h"
#include "bench/table.h"
#include "net/http_admin.h"

using namespace tcvs;
using tcvs::bench::Block;
using tcvs::bench::Num;
using tcvs::bench::Table;

namespace {

constexpr char kBench[] = "bench_admin_scrape";
constexpr int kWarmupMs = 500;
// A scrape is a 10 Hz burst, so each scraped block must span several of
// them; shorter blocks would let the median pick scrape-free blocks.
constexpr int kBlockMs = 250;
constexpr int kPairs = 32;
constexpr int kScrapeIntervalMs = 100;  // 10 Hz.

/// GETs /metrics every kScrapeIntervalMs, from construction to Stop().
class Scraper {
 public:
  explicit Scraper(uint16_t admin_port)
      : thread_([this, admin_port] {
          while (running_.load()) {
            auto resp = net::HttpGet("127.0.0.1", admin_port, "/metrics");
            if (!resp.ok() || resp->status != 200) {
              bench::Die(kBench, "scrape failed");
            }
            ++scrapes_;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kScrapeIntervalMs));
          }
        }) {}

  /// Stops the scraper; returns the number of scrapes it made.
  uint64_t Stop() {
    running_.store(false);
    thread_.join();
    return scrapes_;
  }

 private:
  std::atomic<bool> running_{true};
  uint64_t scrapes_ = 0;
  std::thread thread_;
};

}  // namespace

int main() {
  bench::JsonOut json(kBench);
  bench::ServingLoad load(kBench);

  auto admin = net::HttpAdminServer::Start({});
  if (!admin.ok()) bench::Die(kBench, "admin start: " + admin.status().ToString());
  net::RegisterStandardEndpoints(admin->get(), {});

  std::printf("admin-plane scrape overhead (verified commits, %d clients, "
              "10 Hz /metrics, %d interleaved pairs of %d ms blocks)\n\n",
              bench::ServingLoad::kClients, kPairs, kBlockMs);
  load.Run(kWarmupMs);  // Build the tree, warm caches and connections.
  std::vector<Block> bare, scraped;
  uint64_t scrapes = 0;
  bench::RunPairs(
      kPairs, [&] { return load.Run(kBlockMs); },
      [&] {
        Scraper scraper((*admin)->port());
        Block b = load.Run(kBlockMs);
        scrapes += scraper.Stop();
        return b;
      },
      &bare, &scraped);
  const Block bare_sum = bench::Sum(bare), scraped_sum = bench::Sum(scraped);

  Table table({"phase", "commits", "wall_ms", "ops/sec", "scrapes",
               "delta_pct"});
  table.AddRow({"unscraped", Num(bare_sum.ops), Num(bare_sum.wall_ms),
                Num(bare_sum.ops_per_sec()), Num(uint64_t(0)), Num(0.0)});
  table.AddRow({"scraped_10hz", Num(scraped_sum.ops), Num(scraped_sum.wall_ms),
                Num(scraped_sum.ops_per_sec()), Num(scrapes),
                Num(bench::MedianDeltaPct(bare, scraped))});
  table.Print();
  json.Add("admin scrape overhead", table);

  (*admin)->Stop();
  return 0;
}
