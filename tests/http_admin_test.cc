// HTTP observability plane tests: the admin server's scrape endpoints under
// concurrent load, readiness flipping with WAL health, the exemplar
// reservoir's deterministic policy, the slow-op record's JSON schema, and
// that no observability read waits on the serve loop's execution lock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cvs/trusted.h"
#include "net/http_admin.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "storage/durable.h"
#include "storage/wal.h"
#include "util/cost.h"
#include "util/fault.h"
#include "util/jsonish.h"
#include "util/metrics.h"
#include "util/mutex.h"

namespace tcvs {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("tcvs_http_admin_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

net::HttpAdminServer::Options AdminOptions() {
  net::HttpAdminServer::Options options;
  options.port = 0;  // Ephemeral.
  return options;
}

// ---------------------------------------------------------------------------
// Concurrent scrapes vs live serving
// ---------------------------------------------------------------------------

// Eight scrapers hammer every admin endpoint while verifying clients commit
// through the RPC plane. Serving must stay perturbation-free: every commit
// verifies, every scrape answers 200 with a parseable body. (The observers
// must not become the outage.)
TEST(HttpAdminTest, ConcurrentScrapesDoNotPerturbServing) {
  util::FaultInjector::Instance().Reset();
  cvs::UntrustedServer repo;
  cvs::SerializedServer serialized(&repo);
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t rpc_port = listener->port();
  Status serve_status = Status::OK();
  std::thread serve_thread([l = std::move(listener).ValueOrDie(), &serialized,
                            &serve_status]() mutable {
    rpc::ServeOptions options;
    options.num_threads = 4;
    serve_status = rpc::Serve(&l, &serialized, options);
  });

  auto admin = net::HttpAdminServer::Start(AdminOptions());
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  net::AdminEndpointOptions endpoint_options;
  endpoint_options.build_info = "http_admin_test";
  endpoint_options.config_summary = "\"test\":true";
  net::RegisterStandardEndpoints(admin->get(), endpoint_options);
  const uint16_t admin_port = (*admin)->port();

  constexpr int kScrapers = 8;
  constexpr int kScrapesEach = 12;
  constexpr int kClients = 4;
  constexpr int kCommitsEach = 6;
  std::atomic<int> scrape_failures{0};
  std::atomic<int> commit_failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kScrapers + kClients);
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([admin_port, s, &scrape_failures] {
      static const char* kPaths[] = {"/metrics", "/varz", "/healthz",
                                     "/statusz"};
      for (int i = 0; i < kScrapesEach; ++i) {
        const char* path = kPaths[(s + i) % 4];
        auto resp = net::HttpGet("127.0.0.1", admin_port, path);
        if (!resp.ok() || resp->status != 200 || resp->body.empty()) {
          ++scrape_failures;
        }
      }
    });
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([rpc_port, c, &commit_failures] {
      auto remote = rpc::RemoteServer::Connect("127.0.0.1", rpc_port);
      if (!remote.ok()) {
        commit_failures += kCommitsEach;
        return;
      }
      const uint32_t user = static_cast<uint32_t>(c + 1);
      cvs::VerifyingClient client(user, remote->get());
      const std::string path = "scrape/file" + std::to_string(c);
      for (int i = 0; i < kCommitsEach; ++i) {
        auto rev = client.Commit(path, "v" + std::to_string(i),
                                 static_cast<uint64_t>(i));
        if (!rev.ok()) ++commit_failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(commit_failures.load(), 0);
  EXPECT_EQ(scrape_failures.load(), 0);

  // A post-melee /varz is well-formed JSON and saw the served traffic.
  auto varz = net::HttpGet("127.0.0.1", admin_port, "/varz");
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  auto parsed = util::ParseJson(varz->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue* counters = parsed->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetU64("rpc.serve.transact.requests_total"),
            static_cast<uint64_t>(kClients * kCommitsEach));

  (*admin)->Stop();
  auto shutdown = rpc::RemoteServer::Connect("127.0.0.1", rpc_port);
  ASSERT_TRUE(shutdown.ok());
  ASSERT_TRUE((*shutdown)->Shutdown().ok());
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
}

// ---------------------------------------------------------------------------
// Health vs readiness under a WAL fault
// ---------------------------------------------------------------------------

// /healthz answers "the process is up" and must never flip; /readyz answers
// "this replica can take writes" and must go 503 the moment the WAL stops
// flushing — and recover when it resumes.
TEST(HttpAdminTest, ReadyzFlipsUnderWalFaultAndRecovers) {
  util::FaultInjector::Instance().Reset();
  TempDir dir;
  mtree::TreeParams params;
  storage::DurableOptions durable_options;
  durable_options.fsync = true;  // The sync fault fires on the fsync path.
  auto durable = storage::DurableServer::Open(dir.str(), params,
                                              durable_options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  auto admin = net::HttpAdminServer::Start(AdminOptions());
  ASSERT_TRUE(admin.ok());
  net::AdminEndpointOptions endpoint_options;
  endpoint_options.readiness.push_back(
      {"wal", [server = durable->get()] {
         return server->wal_ok()
                    ? Status::OK()
                    : Status::IOError("wal unappendable");
       }});
  net::RegisterStandardEndpoints(admin->get(), endpoint_options);
  const uint16_t port = (*admin)->port();

  cvs::VerifyingClient alice(1, durable->get());
  ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());
  auto ready = net::HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);

  util::FaultInjector::Instance().Arm(storage::kFaultWalSyncFail,
                                      util::FaultSpec::Always());
  EXPECT_FALSE(alice.Commit("a.c", "v2", 1).ok());
  ready = net::HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 503);
  EXPECT_NE(ready->body.find("wal"), std::string::npos);
  // Liveness is unaffected: the process is up, just not writable.
  auto health = net::HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);

  util::FaultInjector::Instance().Disarm(storage::kFaultWalSyncFail);
  ASSERT_TRUE(alice.Commit("a.c", "v2", 1).ok());
  ready = net::HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status, 200);

  (*admin)->Stop();
}

// ---------------------------------------------------------------------------
// Exemplar reservoir
// ---------------------------------------------------------------------------

// The reservoir policy is a pure function of the record sequence: replaying
// the same (value, trace_id, ts) sequence after a reset reproduces the
// exact reservoir, and zero trace ids never occupy a slot.
TEST(HttpAdminTest, ExemplarReservoirIsDeterministic) {
  auto& registry = util::MetricsRegistry::Instance();
  util::LatencyHistogram* hist =
      registry.GetLatency("test.exemplar.latency_us");

  auto replay = [hist] {
    // Values spread across buckets so several slots occupy, with two
    // landing in the same slot to exercise overwrite order.
    const uint64_t values[] = {3, 90, 1500, 45000, 47000, 12};
    for (size_t i = 0; i < 6; ++i) {
      hist->RecordWithExemplar(values[i], /*trace_id=*/0x1000 + i,
                               /*ts_us=*/7000 + i);
    }
    hist->RecordWithExemplar(999, /*trace_id=*/0, /*ts_us=*/1);  // No slot.
  };

  registry.ResetForTesting();
  replay();
  std::vector<util::Exemplar> first = hist->Exemplars();
  ASSERT_FALSE(first.empty());
  for (const util::Exemplar& e : first) {
    EXPECT_NE(e.trace_id, 0u);
    EXPECT_NE(e.value, 999u);  // The zero-trace-id record left no exemplar.
  }

  registry.ResetForTesting();
  replay();
  std::vector<util::Exemplar> second = hist->Exemplars();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].value, second[i].value);
    EXPECT_EQ(first[i].trace_id, second[i].trace_id);
    EXPECT_EQ(first[i].ts_us, second[i].ts_us);
    EXPECT_EQ(first[i].bucket, second[i].bucket);
  }

  // The exposition renders a joinable exemplar suffix on a quantile line.
  const std::string text = registry.Snapshot().TextFormat();
  EXPECT_NE(
      text.find("tcvs_test_exemplar_latency_us{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos);
  registry.ResetForTesting();
}

// ---------------------------------------------------------------------------
// Observability reads vs the execution lock
// ---------------------------------------------------------------------------

/// A one-shot gate: Wait() blocks until Open().
class Latch {
 public:
  void Open() {
    util::MutexLock lock(&mu_);
    open_ = true;
    cv_.SignalAll();
  }
  void Wait() {
    util::MutexLock lock(&mu_);
    while (!open_) cv_.Wait(&mu_);
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  bool open_ TCVS_GUARDED_BY(mu_) = false;
};

/// An honest repository whose first Transact parks until released. Served
/// through cvs::SerializedServer, Transact runs under that decorator's lock
/// (`cvs.server.serialized`), so while it is parked that lock is held and
/// every other RPC queues behind it.
class BlockingServer : public cvs::ServerApi {
 public:
  Latch entered;
  Latch release;

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    if (!blocked_once_.exchange(true)) {
      entered.Open();
      release.Wait();
    }
    return inner_.Transact(user, ops);
  }
  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return inner_.List(user, prefix);
  }
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return inner_.LogCheckpoint(old_size);
  }
  mtree::TreeParams tree_params() const override {
    return inner_.tree_params();
  }

 private:
  cvs::UntrustedServer inner_;
  std::atomic<bool> blocked_once_{false};
};

// While a commit holds the execution lock — the single-threaded backend's
// cvs::SerializedServer lock, `cvs.server.serialized` — every observability
// endpoint still answers 200 within its deadline: a stats poll can never
// stall commits, and a stalled commit can never blind the operator. A
// second client's RPC, meanwhile, provably waits on the lock. Once
// released, both replies verify and the two clients' registers sync up.
TEST(HttpAdminTest, ConcurrentReadsNeverWaitOnTheExecutionLock) {
  util::FaultInjector::Instance().Reset();
  BlockingServer repo;
  cvs::SerializedServer serialized(&repo);
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t rpc_port = listener->port();
  Status serve_status = Status::OK();
  std::thread serve_thread([l = std::move(listener).ValueOrDie(), &serialized,
                            &serve_status]() mutable {
    rpc::ServeOptions options;
    options.num_threads = 4;
    serve_status = rpc::Serve(&l, &serialized, options);
  });
  auto admin = net::HttpAdminServer::Start(AdminOptions());
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  net::RegisterStandardEndpoints(admin->get(), net::AdminEndpointOptions{});
  const uint16_t admin_port = (*admin)->port();

  // Both clients connect (GetParams also runs under the lock) before the
  // lock is taken.
  rpc::RemoteOptions remote_options;
  remote_options.io_timeout_ms = 60000;  // The parked reply is not a fault.
  auto writer_remote =
      rpc::RemoteServer::Connect("127.0.0.1", rpc_port, remote_options);
  ASSERT_TRUE(writer_remote.ok()) << writer_remote.status().ToString();
  auto reader_remote =
      rpc::RemoteServer::Connect("127.0.0.1", rpc_port, remote_options);
  ASSERT_TRUE(reader_remote.ok()) << reader_remote.status().ToString();
  cvs::VerifyingClient writer(1, writer_remote->get());
  cvs::VerifyingClient reader(2, reader_remote->get());

  Result<uint64_t> commit = Status::Internal("commit never ran");
  std::thread commit_thread(
      [&] { commit = writer.Commit("locked/file", "v1", 0); });
  repo.entered.Wait();  // The execution lock is now held.

  std::atomic<bool> list_done{false};
  Result<std::vector<std::pair<std::string, uint64_t>>> listing =
      Status::Internal("list never ran");
  std::thread list_thread([&] {
    listing = reader.ListDir("locked/");
    list_done = true;
  });

  constexpr int kDeadlineMs = 2000;
  for (const char* path : {"/metrics", "/varz", "/tracez", "/eventsz"}) {
    const uint64_t start_us = util::MonotonicMicros();
    auto resp = net::HttpGet("127.0.0.1", admin_port, path, kDeadlineMs);
    const uint64_t elapsed_ms = (util::MonotonicMicros() - start_us) / 1000;
    ASSERT_TRUE(resp.ok()) << path << ": " << resp.status().ToString();
    EXPECT_EQ(resp->status, 200) << path;
    EXPECT_LT(elapsed_ms, static_cast<uint64_t>(kDeadlineMs)) << path;
  }
  // The lock really was held across those reads: the List is still queued.
  EXPECT_FALSE(list_done.load());

  repo.release.Open();
  commit_thread.join();
  list_thread.join();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(*commit, 1u);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(
      cvs::VerifyingClient::SyncCheck({writer.state(), reader.state()}).ok());

  (*admin)->Stop();
  ASSERT_TRUE((*writer_remote)->Shutdown().ok());
  serve_thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
}

// Silent connections hold fds, not workers: with 2 workers and 4 open
// connections that never send a byte, /healthz on a fresh connection still
// answers at once instead of after the silent ones' read deadlines.
TEST(HttpAdminTest, ConcurrentSilentConnectionsDoNotDelayHealthz) {
  net::HttpAdminServer::Options options = AdminOptions();
  options.num_threads = 2;
  auto admin = net::HttpAdminServer::Start(options);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  net::RegisterStandardEndpoints(admin->get(), net::AdminEndpointOptions{});
  const uint16_t admin_port = (*admin)->port();

  std::vector<net::TcpConnection> silent;
  for (int i = 0; i < 4; ++i) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", admin_port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    silent.push_back(std::move(conn).ValueOrDie());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const uint64_t start_us = util::MonotonicMicros();
  auto resp = net::HttpGet("127.0.0.1", admin_port, "/healthz", 5000);
  const uint64_t elapsed_us = util::MonotonicMicros() - start_us;
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "ok\n");
  EXPECT_LT(elapsed_us, 1'000'000u);
  silent.clear();
  (*admin)->Stop();
}

// ---------------------------------------------------------------------------
// Slow-op record schema
// ---------------------------------------------------------------------------

// The JSON-lines record parses back with the same numbers — the contract
// consumers of the stderr stream (and the obs smoke stage) rely on.
TEST(HttpAdminTest, SlowOpRecordJsonCarriesEveryField) {
  util::SlowOpRecord record;
  record.method = "transact";
  record.latency_us = 125000;
  record.trace_id = 0x00f1e2d3c4b5a697ULL;
  record.ts_us = 424242;
  record.cost.hashes = 12;
  record.cost.bytes_hashed = 4096;
  record.cost.vo_bytes_built = 777;
  record.cost.wal_appends = 1;
  record.cost.wal_fsync_wait_us = 90000;
  record.cost.queue_us = 310;
  util::TraceDump::Event span;
  span.name = "storage.wal.fsync";
  span.start_us = 424300;
  span.duration_us = 90000;
  span.thread = 3;
  span.trace_id = record.trace_id;
  span.span_id = 0xabcdef0123456789ULL;
  span.parent_span_id = 0x1111222233334444ULL;
  record.spans.push_back(span);

  auto parsed = util::ParseJson(record.JsonFormat());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("method")->string(), "transact");
  EXPECT_EQ(parsed->GetU64("latency_us"), record.latency_us);
  EXPECT_EQ(parsed->Get("trace_id")->string(), "00f1e2d3c4b5a697");
  EXPECT_EQ(parsed->GetU64("ts_us"), record.ts_us);
  const util::JsonValue* cost = parsed->Get("cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->GetU64("hashes"), record.cost.hashes);
  EXPECT_EQ(cost->GetU64("bytes_hashed"), record.cost.bytes_hashed);
  EXPECT_EQ(cost->GetU64("vo_bytes_built"), record.cost.vo_bytes_built);
  EXPECT_EQ(cost->GetU64("wal_appends"), record.cost.wal_appends);
  EXPECT_EQ(cost->GetU64("wal_fsync_wait_us"), record.cost.wal_fsync_wait_us);
  EXPECT_EQ(cost->GetU64("queue_us"), record.cost.queue_us);
  const util::JsonValue* spans = parsed->Get("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->array().size(), 1u);
  const util::JsonValue& s0 = spans->array()[0];
  EXPECT_EQ(s0.Get("name")->string(), "storage.wal.fsync");
  EXPECT_EQ(s0.GetU64("start_us"), span.start_us);
  EXPECT_EQ(s0.GetU64("duration_us"), span.duration_us);
  EXPECT_EQ(s0.Get("span_id")->string(), "abcdef0123456789");
  EXPECT_EQ(s0.Get("parent_span_id")->string(), "1111222233334444");
}

}  // namespace
}  // namespace tcvs
