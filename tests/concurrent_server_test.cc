// Stress tests for the multi-threaded serve loop: N concurrent verifying
// clients hammer one server with interleaved commits, checkouts, and
// listings, and every protocol invariant must hold exactly as it does under
// sequential execution:
//
//   * every reply passes full Protocol II verification (a racy server that
//     interleaved two transactions would produce an unverifiable VO chain),
//   * the server's counter equals the number of transactions issued
//     (gctr = Σ lctr_k, the §4 sync-up identity),
//   * the cross-client SyncCheck detects no fork,
//   * a request id is answered by ONE execution no matter how many times
//     transport faults force its replay,
//   * every server handler span joins the trace of the client call that
//     issued it — causal identity survives 8 threads interleaving on the
//     wire,
//   * the admin plane (/varz, /tracez) reads consistent snapshots while
//     the serve loop is under load.
//
// These tests are the TSan preset's main prey: run them under
// `cmake --preset tsan` (tools/check.sh does) to turn latent data races in
// the serve path into hard failures.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "cvs/trusted.h"
#include "net/http_admin.h"
#include "net/socket.h"
#include "rpc/protocol.h"
#include "rpc/remote.h"
#include "storage/durable.h"
#include "util/fault.h"
#include "util/jsonish.h"
#include "util/metrics.h"

namespace tcvs {
namespace {

rpc::RemoteOptions FastRetryOptions() {
  rpc::RemoteOptions options;
  options.retry.max_attempts = 12;
  options.retry.initial_backoff_ms = 2;
  options.retry.max_backoff_ms = 50;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 5000;
  return options;
}

/// An in-process admin plane over this process's metrics registry — the
/// same surface `tcvsd --admin-port` serves. Null on failure.
std::unique_ptr<net::HttpAdminServer> StartAdmin() {
  auto admin = net::HttpAdminServer::Start(net::HttpAdminServer::Options{});
  if (!admin.ok()) return nullptr;
  net::RegisterStandardEndpoints(admin->get(), net::AdminEndpointOptions{});
  return std::move(admin).ValueOrDie();
}

/// One /varz scrape, parsed; fails unless it answered 200 with counters and
/// histograms.
Result<util::JsonValue> FetchVarz(uint16_t admin_port) {
  TCVS_ASSIGN_OR_RETURN(net::HttpResponse resp,
                        net::HttpGet("127.0.0.1", admin_port, "/varz"));
  if (resp.status != 200) return Status::Unavailable("/varz not 200");
  TCVS_ASSIGN_OR_RETURN(util::JsonValue root, util::ParseJson(resp.body));
  if (root.Get("counters") == nullptr || root.Get("histograms") == nullptr) {
    return Status::InvalidArgument("/varz without counters/histograms");
  }
  return root;
}

uint64_t CounterValue(const std::string& name) {
  auto snap = util::MetricsRegistry::Instance().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

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

/// Pass-through to a repository; after ParkNextTransact(), the next
/// Transact opens `entered` and parks until `release` opens.
class ParkingServer : public cvs::ServerApi {
 public:
  explicit ParkingServer(cvs::ServerApi* inner) : inner_(inner) {}

  void ParkNextTransact() { park_.store(true); }
  Latch entered;
  Latch release;

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    if (park_.exchange(false)) {
      entered.Open();
      release.Wait();
    }
    return inner_->Transact(user, ops);
  }
  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return inner_->List(user, prefix);
  }
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return inner_->LogCheckpoint(old_size);
  }
  mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

 private:
  cvs::ServerApi* const inner_;
  std::atomic<bool> park_{false};
};

/// One server + worker pool serving an in-memory repository for the
/// duration of a test, shut down via RPC in TearDown.
class ConcurrentServerTest : public ::testing::Test {
 protected:
  static constexpr int kClients = 8;
  static constexpr int kIterations = 8;

  void SetUp() override {
    util::FaultInjector::Instance().Reset();
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    port_ = listener->port();
    rpc::ServeOptions options;
    options.num_threads = kClients;
    serve_thread_ = std::thread(
        [l = std::move(listener).ValueOrDie(), this, options]() mutable {
          serve_status_ = rpc::Serve(&l, &serialized_, options);
        });
  }

  void TearDown() override {
    util::FaultInjector::Instance().Reset();
    auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE((*remote)->Shutdown().ok());
    serve_thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  cvs::UntrustedServer repo_;
  ParkingServer parking_{&repo_};
  cvs::SerializedServer serialized_{&parking_};
  uint16_t port_ = 0;
  std::thread serve_thread_;
  Status serve_status_ = Status::OK();
};

TEST_F(ConcurrentServerTest, InterleavedCommitsAndReadsVerifyAndSyncUp) {
  std::vector<cvs::ClientState> states(kClients);
  std::vector<uint64_t> ops_issued(kClients, 0);
  std::atomic<int> failures{0};

  auto client_body = [&](int idx) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    if (!remote.ok()) {
      ++failures;
      return;
    }
    const uint32_t user = static_cast<uint32_t>(idx + 1);
    cvs::VerifyingClient client(user, remote->get());
    const std::string path = "dir/file" + std::to_string(idx);
    uint64_t ops = 0;
    for (int it = 0; it < kIterations; ++it) {
      auto rev = client.Commit(path, "v" + std::to_string(it),
                               static_cast<uint64_t>(it));
      if (!rev.ok() || *rev != static_cast<uint64_t>(it + 1)) {
        ++failures;
        return;
      }
      ++ops;
      auto rec = client.Checkout(path);
      if (!rec.ok() || rec->content != "v" + std::to_string(it)) {
        ++failures;
        return;
      }
      ++ops;
      if (it % 4 == 3) {
        // A COMPLETE listing taken mid-melee: still verifies, still contains
        // this client's own file.
        auto listing = client.ListDir("dir/");
        if (!listing.ok()) {
          ++failures;
          return;
        }
        bool mine = false;
        for (const auto& [name, rev_seen] : *listing) {
          if (name == path) mine = rev_seen == static_cast<uint64_t>(it + 1);
        }
        if (!mine) {
          ++failures;
          return;
        }
        ++ops;
      }
    }
    states[idx] = client.state();
    ops_issued[idx] = ops;
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_body, i);
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // The §4 sync-up identity: the server's global counter is exactly the sum
  // of per-client local counters — no transaction lost, none double-run.
  uint64_t total_ops = 0;
  uint64_t sum_lctr = 0;
  for (int i = 0; i < kClients; ++i) {
    total_ops += ops_issued[i];
    sum_lctr += states[i].lctr;
  }
  EXPECT_EQ(repo_.ctr(), total_ops);
  EXPECT_EQ(sum_lctr, total_ops);

  // Cross-client fork check over all final states.
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck(states).ok());

  // The concurrent run's final state matches what sequential execution
  // would produce: every file holds its last committed content.
  auto remote =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient reader(100, remote->get());
  for (int i = 0; i < kClients; ++i) {
    auto rec = reader.Checkout("dir/file" + std::to_string(i));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->content, "v" + std::to_string(kIterations - 1));
    EXPECT_EQ(rec->revision, static_cast<uint64_t>(kIterations));
  }
}

TEST_F(ConcurrentServerTest, ContendedSameFileCommitsStayAtomic) {
  // Every client fights over ONE path. Exactly one commit can win each
  // revision; losers see an authenticated conflict and rebase. The final
  // revision count proves no commit was applied twice or lost.
  const std::string path = "contended";
  std::atomic<int> failures{0};
  std::atomic<uint64_t> wins{0};

  auto client_body = [&](int idx) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    if (!remote.ok()) {
      ++failures;
      return;
    }
    cvs::VerifyingClient client(static_cast<uint32_t>(idx + 1),
                                remote->get());
    for (int it = 0; it < kIterations; ++it) {
      for (int attempt = 0;; ++attempt) {
        if (attempt > kClients * kIterations + 8) {
          ++failures;  // Livelock: someone's conflict never resolved.
          return;
        }
        uint64_t base = 0;
        auto rec = client.Checkout(path);
        if (rec.ok()) {
          base = rec->revision;
        } else if (!rec.status().IsNotFound()) {
          ++failures;
          return;
        }
        auto rev = client.Commit(path, "by" + std::to_string(idx), base);
        if (rev.ok()) {
          ++wins;
          break;
        }
        if (!rev.status().IsFailedPrecondition() &&
            !rev.status().IsAlreadyExists()) {
          ++failures;
          return;
        }
      }
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_body, i);
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(wins.load(), static_cast<uint64_t>(kClients * kIterations));

  auto remote =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient reader(100, remote->get());
  auto rec = reader.Checkout(path);
  ASSERT_TRUE(rec.ok());
  // One revision per winning commit, exactly.
  EXPECT_EQ(rec->revision, static_cast<uint64_t>(kClients * kIterations));
}

TEST_F(ConcurrentServerTest, LostRepliesReplayIdempotentlyUnderConcurrency) {
  // 20% of requests lose their reply after execution, concurrently across
  // all clients. Every retry reuses its request id, so the reply cache must
  // answer each id with ONE execution — the exact counters below would be
  // off if even a single replay re-executed.
  util::FaultInjector::Instance().Arm(rpc::kFaultServeDropAfter,
                                      util::FaultSpec::Probability(0.2));

  std::vector<cvs::ClientState> states(kClients);
  std::atomic<int> failures{0};
  auto client_body = [&](int idx) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    if (!remote.ok()) {
      ++failures;
      return;
    }
    const uint32_t user = static_cast<uint32_t>(idx + 1);
    cvs::VerifyingClient client(user, remote->get());
    const std::string path = "f" + std::to_string(idx);
    for (int it = 0; it < kIterations; ++it) {
      auto rev = client.Commit(path, "v" + std::to_string(it),
                               static_cast<uint64_t>(it));
      if (!rev.ok() || *rev != static_cast<uint64_t>(it + 1)) {
        ++failures;
        return;
      }
    }
    states[idx] = client.state();
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_body, i);
  for (auto& t : clients) t.join();
  util::FaultInjector::Instance().Disarm(rpc::kFaultServeDropAfter);
  ASSERT_EQ(failures.load(), 0);

  // Exactly one execution per logical request: kClients * kIterations
  // commits, regardless of how many replays the fault forced.
  EXPECT_EQ(repo_.ctr(), static_cast<uint64_t>(kClients * kIterations));
  uint64_t sum_lctr = 0;
  for (const auto& s : states) sum_lctr += s.lctr;
  EXPECT_EQ(sum_lctr, static_cast<uint64_t>(kClients * kIterations));
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck(states).ok());
}

/// A transport that sends each Transact over TWO connections under one
/// request id, the second copy while the first is parked in the backend and
/// after it reached the serve loop's in-flight wait, then hands back the
/// first reply. Keeps both reply frames.
class TwinTransport : public cvs::ServerApi {
 public:
  TwinTransport(uint16_t port, ParkingServer* parking)
      : port_(port), parking_(parking) {}

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    rpc::RpcRequest req;
    req.type = rpc::RpcType::kTransact;
    req.user = user;
    req.ops = ops;
    req.request_id = 0x7717;
    const Bytes wire = req.Serialize();
    TCVS_ASSIGN_OR_RETURN(net::TcpConnection first,
                          net::TcpConnection::Connect("127.0.0.1", port_, 2000));
    TCVS_ASSIGN_OR_RETURN(net::TcpConnection second,
                          net::TcpConnection::Connect("127.0.0.1", port_, 2000));
    const uint64_t waits_before =
        CounterValue("rpc.serve.reply_cache.inflight_waits_total");
    parking_->ParkNextTransact();
    TCVS_RETURN_NOT_OK(first.SendFrame(wire));
    parking_->entered.Wait();  // The first copy is executing.
    TCVS_RETURN_NOT_OK(second.SendFrame(wire));
    // Bounded, so a serve loop without the wait fails the test, not hangs.
    const uint64_t deadline_us = util::MonotonicMicros() + 5'000'000;
    while (CounterValue("rpc.serve.reply_cache.inflight_waits_total") ==
               waits_before &&
           util::MonotonicMicros() < deadline_us) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    parking_->release.Open();
    TCVS_ASSIGN_OR_RETURN(Bytes first_reply, first.ReceiveFrame());
    TCVS_ASSIGN_OR_RETURN(Bytes second_reply, second.ReceiveFrame());
    replies_ = {first_reply, second_reply};
    TCVS_ASSIGN_OR_RETURN(util::Tainted<rpc::RpcResponse> parsed,
                          rpc::RpcResponse::Deserialize(first_reply));
    TCVS_ASSIGN_OR_RETURN(rpc::RpcResponse resp,
                          rpc::CheckResponseEnvelope(std::move(parsed)));
    TCVS_RETURN_NOT_OK(resp.ToStatus());
    return cvs::ServerReply::Deserialize(resp.payload);
  }
  Result<util::Tainted<cvs::ListReply>> List(uint32_t,
                                             const std::string&) override {
    return Status::Unimplemented("twin transport: transact only");
  }
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t) override {
    return Status::Unimplemented("twin transport: transact only");
  }
  mtree::TreeParams tree_params() const override { return {}; }

  const std::vector<Bytes>& replies() const { return replies_; }

 private:
  uint16_t port_;
  ParkingServer* parking_;
  std::vector<Bytes> replies_;
};

TEST_F(ConcurrentServerTest, DuplicateInFlightRequestIdExecutesOnce) {
  // The reply cache has no entry for a request that is still executing, so
  // only the in-flight claim stops its concurrent duplicate from executing
  // a second time: both copies must get the one execution's reply.
  TwinTransport twin(port_, &parking_);
  cvs::VerifyingClient alice(1, &twin);
  auto rev = alice.Commit("twin/file", "v1", 0);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 1u);
  ASSERT_EQ(twin.replies().size(), 2u);
  EXPECT_EQ(twin.replies()[0], twin.replies()[1]);

  auto remote =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient bob(2, remote->get());
  ASSERT_TRUE(bob.Commit("twin/other", "v1", 0).ok());
  EXPECT_EQ(repo_.ctr(), 2u);
  EXPECT_EQ(alice.state().lctr + bob.state().lctr, repo_.ctr());
  EXPECT_TRUE(
      cvs::VerifyingClient::SyncCheck({alice.state(), bob.state()}).ok());
}

TEST_F(ConcurrentServerTest, ConcurrentStatsSnapshotsStayConsistent) {
  // Clients hammer the server while a poller thread scrapes /varz mid-
  // flight. Every snapshot must be internally consistent — the serve loop
  // increments requests_total strictly before replies_total, so replies ≤
  // requests must hold in EVERY observation, not just at rest.
  util::MetricsRegistry::Instance().ResetForTesting();
  auto admin = StartAdmin();
  ASSERT_NE(admin, nullptr);
  const uint16_t admin_port = admin->port();

  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};

  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto varz = FetchVarz(admin_port);
      if (!varz.ok()) {
        ++failures;
        return;
      }
      ++snapshots_taken;
      const util::JsonValue& counters = *varz->Get("counters");
      const uint64_t requests = counters.GetU64("rpc.serve.requests_total");
      const uint64_t replies = counters.GetU64("rpc.serve.replies_total");
      if (replies > requests) {
        ++failures;
        return;
      }
      const uint64_t hits =
          counters.GetU64("rpc.serve.reply_cache.hits_total");
      const uint64_t misses =
          counters.GetU64("rpc.serve.reply_cache.misses_total");
      if (hits + misses > requests) {
        ++failures;  // Every cache lookup belongs to a parsed request.
        return;
      }
    }
  });

  std::atomic<int> client_failures{0};
  auto client_body = [&](int idx) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    if (!remote.ok()) {
      ++client_failures;
      return;
    }
    cvs::VerifyingClient client(static_cast<uint32_t>(idx + 1),
                                remote->get());
    const std::string path = "stats/file" + std::to_string(idx);
    for (int it = 0; it < kIterations; ++it) {
      auto rev = client.Commit(path, "v" + std::to_string(it),
                               static_cast<uint64_t>(it));
      if (!rev.ok()) {
        ++client_failures;
        return;
      }
      auto rec = client.Checkout(path);
      if (!rec.ok()) {
        ++client_failures;
        return;
      }
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_body, i);
  for (auto& t : clients) t.join();
  done.store(true);
  poller.join();

  ASSERT_EQ(client_failures.load(), 0);
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(snapshots_taken.load(), 0u);

  // The quiesced snapshot carries non-zero values for every instrumented
  // layer the workload exercised: RPC serve/client, reply cache, per-method
  // counts, the admin plane itself, Merkle-tree proof building, client-side
  // VO verification, and the hash engine underneath it all.
  auto varz = FetchVarz(admin_port);
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  const util::JsonValue& counters = *varz->Get("counters");

  const uint64_t expected_transactions =
      static_cast<uint64_t>(kClients) * kIterations * 2;  // Commit + Checkout.
  EXPECT_GE(counters.GetU64("rpc.serve.transact.requests_total"),
            expected_transactions);
  EXPECT_GT(counters.GetU64("rpc.serve.requests_total"), 0u);
  EXPECT_GT(counters.GetU64("http.admin.varz.requests_total"), 0u);
  EXPECT_GT(counters.GetU64("rpc.serve.reply_cache.insertions_total"), 0u);
  EXPECT_GT(counters.GetU64("cvs.server.transactions_total"), 0u);
  EXPECT_GT(counters.GetU64("crypto.sha256.hashes_total"), 0u);
  EXPECT_GT(counters.GetU64("net.bytes_sent_total"), 0u);

  const util::JsonValue& hists = *varz->Get("histograms");
  auto hist_count = [&](const std::string& name) -> uint64_t {
    const util::JsonValue* h = hists.Get(name);
    return h == nullptr ? 0 : h->GetU64("count");
  };
  EXPECT_GT(hist_count("rpc.serve.handle_frame.latency_us"), 0u);
  EXPECT_GT(hist_count("mtree.tree.upsert.latency_us"), 0u);
  EXPECT_GT(hist_count("mtree.tree.prove_point.latency_us"), 0u);
  EXPECT_GT(hist_count("mtree.vo.verify_point.latency_us"), 0u);
  EXPECT_GT(hist_count("rpc.client.transact.latency_us"), 0u);
}

TEST_F(ConcurrentServerTest, TracePropagatesFromEveryClientIntoServerSpans) {
  // 8 concurrent clients, tracing on: every server handler span must carry
  // the trace id the issuing client's RPC span minted, parented under that
  // exact span — across threads, interleaved on the wire.
  util::MetricsRegistry& reg = util::MetricsRegistry::Instance();
  reg.ResetForTesting();
  reg.set_trace_capacity(size_t{1} << 15);  // Headroom for every span.
  reg.set_trace_enabled(true);
  auto admin = StartAdmin();
  ASSERT_NE(admin, nullptr);

  std::atomic<int> failures{0};
  auto client_body = [&](int idx) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    if (!remote.ok()) {
      ++failures;
      return;
    }
    cvs::VerifyingClient client(static_cast<uint32_t>(idx + 1),
                                remote->get());
    const std::string path = "trace/file" + std::to_string(idx);
    for (int it = 0; it < kIterations; ++it) {
      auto rev = client.Commit(path, "v" + std::to_string(it),
                               static_cast<uint64_t>(it));
      if (!rev.ok()) {
        ++failures;
        return;
      }
      auto rec = client.Checkout(path);
      if (!rec.ok()) {
        ++failures;
        return;
      }
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_body, i);
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Drain through /tracez — the same path `tcvs trace` uses.
  auto tracez = net::HttpGet("127.0.0.1", admin->port(), "/tracez");
  reg.set_trace_enabled(false);
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  ASSERT_EQ(tracez->status, 200);
  const std::string& json = tracez->body;
  auto parsed = util::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue* trace_events = parsed->Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  // Decode each Chrome trace event, 16-hex-digit ids included.
  using Span = util::TraceDump::Event;
  auto hex_arg = [](const util::JsonValue& args, const char* key) {
    const util::JsonValue* v = args.Get(key);
    return v != nullptr && v->is_string()
               ? std::strtoull(v->string().c_str(), nullptr, 16)
               : 0;
  };
  std::vector<Span> spans;
  for (const util::JsonValue& e : trace_events->array()) {
    const util::JsonValue* name = e.Get("name");
    const util::JsonValue* args = e.Get("args");
    ASSERT_TRUE(name != nullptr && name->is_string() && args != nullptr);
    Span span;
    span.name = name->string();
    span.start_us = e.GetU64("ts");
    span.duration_us = e.GetU64("dur");
    span.trace_id = hex_arg(*args, "trace_id");
    span.span_id = hex_arg(*args, "span_id");
    span.parent_span_id = hex_arg(*args, "parent_span_id");
    spans.push_back(std::move(span));
  }

  // Index the client-side RPC spans (calls and connect handshakes) by span
  // id; collect the server handler spans.
  std::map<uint64_t, const Span*> client_spans;
  std::vector<const Span*> server_spans;
  for (const Span& e : spans) {
    if (e.name == "rpc.client.call" || e.name == "rpc.client.connect") {
      client_spans[e.span_id] = &e;
    }
    if (e.name == "rpc.serve.handle_frame") server_spans.push_back(&e);
  }
  // Every commit/checkout produced one client span + one server span.
  const size_t expected = size_t{kClients} * kIterations * 2;
  EXPECT_GE(client_spans.size(), expected);
  ASSERT_GE(server_spans.size(), expected);

  for (const Span* server : server_spans) {
    EXPECT_NE(server->trace_id, 0u);
    auto parent = client_spans.find(server->parent_span_id);
    ASSERT_NE(parent, client_spans.end())
        << "server span has no issuing client RPC span";
    const Span* client = parent->second;
    EXPECT_EQ(server->trace_id, client->trace_id)
        << "handler must join the caller's trace, not start its own";
    // Same process, same clock: the handler runs strictly inside the
    // client's RPC window.
    EXPECT_GE(server->start_us, client->start_us);
    EXPECT_LE(server->start_us + server->duration_us,
              client->start_us + client->duration_us);
  }

  // Distinct clients never share a trace: with no outer span, every RPC
  // mints a fresh trace id.
  std::set<uint64_t> trace_ids;
  for (const auto& [span_id, e] : client_spans) trace_ids.insert(e->trace_id);
  EXPECT_EQ(trace_ids.size(), client_spans.size());

  // The export is structurally valid Chrome trace JSON: one object, every
  // brace/bracket balanced outside strings, ids as quoted hex (64-bit ids
  // as bare JSON numbers would silently lose precision past 2^53).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0) << "unbalanced at offset " << i;
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"trace_id\":0"), std::string::npos)
      << "trace ids must be quoted hex strings, never bare numbers";

  // Chronological consistency: the exported "ts" values are non-decreasing,
  // so a Perfetto/Chrome load shows causally ordered slices.
  uint64_t prev_ts = 0;
  size_t ts_seen = 0;
  for (size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 5)) {
    const uint64_t ts = std::strtoull(json.c_str() + pos + 5, nullptr, 10);
    EXPECT_GE(ts, prev_ts) << "trace events must be sorted by start time";
    prev_ts = ts;
    ++ts_seen;
  }
  EXPECT_EQ(ts_seen, spans.size());
  reg.ResetForTesting();
}

TEST(ConcurrentDurableServerTest, GroupCommitWindowOverRpcVerifiesAndRecovers) {
  // The full deployment path under the group-commit window: 8 TCP clients
  // hammer a fsync-on DurableServer through the serve loop's worker pool,
  // so concurrent WaitDurable calls actually form batches. Every reply must
  // still pass full Protocol II verification, the cross-client sync-up must
  // see no fork, and a reopen must replay to the identical counter and root
  // digest — group commit may reorder *when* records hit the device, never
  // which records exist or what they apply to.
  constexpr int kClients = 8;
  constexpr int kIterations = 6;
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tcvs_concurrent_gc_test";
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);

  storage::DurableOptions options;
  options.fsync = true;
  options.group_commit_window_us = 2000;

  std::vector<cvs::ClientState> states(kClients);
  crypto::Digest digest_before_close;
  {
    auto server = storage::DurableServer::Open(dir.string(),
                                               mtree::TreeParams{}, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    const uint16_t port = listener->port();
    rpc::ServeOptions serve_options;
    serve_options.num_threads = kClients;
    Status serve_status = Status::OK();
    std::thread serve_thread([l = std::move(listener).ValueOrDie(),
                              &serve_status, api = server->get(),
                              serve_options]() mutable {
      serve_status = rpc::Serve(&l, api, serve_options);
    });

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        auto remote =
            rpc::RemoteServer::Connect("127.0.0.1", port, FastRetryOptions());
        if (!remote.ok()) {
          ++failures;
          return;
        }
        cvs::VerifyingClient client(static_cast<uint32_t>(i + 1),
                                    remote->get());
        const std::string path = "gc/file" + std::to_string(i);
        for (int it = 0; it < kIterations; ++it) {
          auto rev = client.Commit(path, "v" + std::to_string(it),
                                   static_cast<uint64_t>(it));
          if (!rev.ok() || *rev != static_cast<uint64_t>(it + 1)) {
            ++failures;
            return;
          }
        }
        states[i] = client.state();
      });
    }
    for (auto& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0);

    auto remote = rpc::RemoteServer::Connect("127.0.0.1", port);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE((*remote)->Shutdown().ok());
    serve_thread.join();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();

    EXPECT_EQ((*server)->server()->ctr(),
              static_cast<uint64_t>(kClients * kIterations));
    EXPECT_TRUE(cvs::VerifyingClient::SyncCheck(states).ok());
    digest_before_close = (*server)->server()->tree().root_digest();
  }

  // Exactly-once replay across the window: the reopened server recovers the
  // identical transaction count and root digest the clients verified.
  auto reopened = storage::DurableServer::Open(dir.string(),
                                               mtree::TreeParams{}, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->server()->ctr(),
            static_cast<uint64_t>(kClients * kIterations));
  EXPECT_EQ((*reopened)->server()->tree().root_digest(), digest_before_close);
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// The serve loop: more connections than workers
// ---------------------------------------------------------------------------

/// A server with fewer workers than the connections each test opens. A
/// connection holds a worker for one request, so every connection is
/// served anyway.
class ConcurrentServeLoopTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 2;

  void SetUp() override {
    util::FaultInjector::Instance().Reset();
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    port_ = listener->port();
    rpc::ServeOptions options;
    options.num_threads = kWorkers;
    serve_thread_ = std::thread(
        [l = std::move(listener).ValueOrDie(), this, options]() mutable {
          serve_status_ = rpc::Serve(&l, &serialized_, options);
          returned_us_ = util::MonotonicMicros();
        });
  }

  void TearDown() override {
    if (!serve_thread_.joinable()) return;
    if (returned_us_.load() == 0) {
      auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ASSERT_TRUE((*remote)->Shutdown().ok());
    }
    serve_thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  /// Waits up to `timeout_ms` for Serve to return.
  bool WaitForServeReturn(int timeout_ms) {
    const uint64_t deadline_us =
        util::MonotonicMicros() + static_cast<uint64_t>(timeout_ms) * 1000;
    while (returned_us_.load() == 0 && util::MonotonicMicros() < deadline_us) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return returned_us_.load() != 0;
  }

  cvs::UntrustedServer repo_;
  cvs::SerializedServer serialized_{&repo_};
  uint16_t port_ = 0;
  std::thread serve_thread_;
  Status serve_status_ = Status::OK();
  /// MonotonicMicros() when Serve returned; 0 while it serves.
  std::atomic<uint64_t> returned_us_{0};
};

TEST_F(ConcurrentServeLoopTest, MoreClientsThanWorkersAllCommit) {
  // 4 × workers + 1 verifying clients, every connection open for the whole
  // test: a worker per connection would leave all but two unserved.
  constexpr int kClients = 4 * kWorkers + 1;
  constexpr int kRounds = 5;
  const uint64_t start_us = util::MonotonicMicros();
  std::vector<std::unique_ptr<rpc::RemoteServer>> remotes;
  for (int i = 0; i < kClients; ++i) {
    auto remote =
        rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
    ASSERT_TRUE(remote.ok()) << "client " << i << ": "
                             << remote.status().ToString();
    remotes.push_back(std::move(remote).ValueOrDie());
  }
  std::vector<cvs::ClientState> states(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      cvs::VerifyingClient client(static_cast<uint32_t>(i + 1),
                                  remotes[i].get());
      const std::string path = "many/file" + std::to_string(i);
      for (int round = 0; round < kRounds; ++round) {
        auto rev = client.Commit(path, "v" + std::to_string(round),
                                 static_cast<uint64_t>(round));
        if (!rev.ok() || *rev != static_cast<uint64_t>(round + 1)) {
          ++failures;
          return;
        }
      }
      states[i] = client.state();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_LT(util::MonotonicMicros() - start_us, 20'000'000u);
  // gctr = Σ lctr, and no fork between any two clients.
  uint64_t sum_lctr = 0;
  for (const cvs::ClientState& state : states) sum_lctr += state.lctr;
  EXPECT_EQ(repo_.ctr(), static_cast<uint64_t>(kClients * kRounds));
  EXPECT_EQ(sum_lctr, repo_.ctr());
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck(states).ok());
}

TEST_F(ConcurrentServeLoopTest, PartialFrameNeitherWedgesServingNorShutdown) {
  // A raw peer sends 2 of a frame's 4 header bytes and goes silent: the
  // worker that reads them waits one frame deadline, not forever.
  auto stalled = net::TcpConnection::Connect("127.0.0.1", port_, 2000);
  ASSERT_TRUE(stalled.ok()) << stalled.status().ToString();
  const uint8_t half_header[2] = {8, 0};
  ASSERT_TRUE(stalled->WriteRaw(half_header, sizeof(half_header)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The other worker still serves a third party.
  auto remote =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient client(1, remote->get());
  auto rev = client.Commit("partial/file", "v0", 0);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 1u);

  // Shutdown from yet another client: Serve returns once the stalled
  // read's deadline passes.
  auto control =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const uint64_t shutdown_us = util::MonotonicMicros();
  ASSERT_TRUE((*control)->Shutdown().ok());
  const bool returned = WaitForServeReturn(rpc::kServeFrameTimeoutMs + 1000);
  // Closing the raw peer frees a wedged worker, so a failure cannot hang.
  stalled->Close();
  EXPECT_TRUE(returned) << "Serve still running "
                        << rpc::kServeFrameTimeoutMs + 1000
                        << " ms after shutdown";
  if (returned) {
    EXPECT_LT(returned_us_.load() - shutdown_us,
              static_cast<uint64_t>(rpc::kServeFrameTimeoutMs + 1000) * 1000);
  }
}

TEST_F(ConcurrentServeLoopTest, TransientAcceptErrorsKeepServing) {
  // Run this process out of fds so the serve loop's accept fails with
  // EMFILE, then give them back: the loop counts the errors, keeps
  // serving, and accepts the connection that waited in the backlog.
  // A served round trip first: the loop's epoll set exists before fds
  // run out.
  auto early =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  util::Counter* const accept_errors =
      util::MetricsRegistry::Instance().GetCounter(
          "net.serve.accept_errors_total");
  const uint64_t errors_before = accept_errors->value();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 16;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> filler;
  for (int fd = ::dup(lowest_free); fd >= 0; fd = ::dup(lowest_free)) {
    filler.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(filler.empty());
  // One fd for the client's socket; the handshake completes in the kernel
  // and the connection waits in the backlog for an accept with no fd.
  ::close(lowest_free);
  auto raw = net::TcpConnection::Connect("127.0.0.1", port_, 2000);
  const uint64_t wait_deadline_us = util::MonotonicMicros() + 5'000'000;
  while (raw.ok() && accept_errors->value() == errors_before &&
         util::MonotonicMicros() < wait_deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t errors_seen = accept_errors->value() - errors_before;
  for (int fd : filler) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_GT(errors_seen, 0u);
  EXPECT_EQ(returned_us_.load(), 0u) << serve_status_.ToString();

  // The backlogged connection is accepted and served now.
  raw->set_io_timeout_ms(5000);
  rpc::RpcRequest request;
  request.type = rpc::RpcType::kGetParams;
  ASSERT_TRUE(raw->SendFrame(request.Serialize()).ok());
  auto reply = raw->ReceiveFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->empty());
  // And so is a new verifying client.
  auto remote =
      rpc::RemoteServer::Connect("127.0.0.1", port_, FastRetryOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient client(1, remote->get());
  auto rev = client.Commit("emfile/file", "v0", 0);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(returned_us_.load(), 0u);
}

}  // namespace
}  // namespace tcvs
