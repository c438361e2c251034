// Fault-injection and resilience tests: the FaultInjector itself, the retry
// policy, transport deadlines, and the end-to-end behaviors the fault model
// promises — a retrying client transparently survives benign transport
// faults (dropped connections, lost replies, a killed-and-restarted
// server), while corruption is NEVER retried and fails loud.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <thread>

#include "cvs/cache.h"
#include "mtree/btree.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "rpc/retry.h"
#include "storage/durable.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/serde.h"

namespace tcvs {
namespace {

using util::FaultInjector;
using util::FaultSpec;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST_F(FaultTest, UnarmedPointsNeverFire) {
  auto& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.ShouldFail("no.such.point"));
  EXPECT_EQ(fi.hits("no.such.point"), 0u);
}

TEST_F(FaultTest, OneShotFiresOnceThenDisarms) {
  auto& fi = FaultInjector::Instance();
  fi.Arm("p", FaultSpec::OneShot(42));
  uint64_t arg = 0;
  EXPECT_TRUE(fi.ShouldFail("p", &arg));
  EXPECT_EQ(arg, 42u);
  EXPECT_FALSE(fi.ShouldFail("p"));
  EXPECT_FALSE(fi.ShouldFail("p"));
  EXPECT_EQ(fi.fires("p"), 1u);
}

TEST_F(FaultTest, NthCallFiresExactlyOnNth) {
  auto& fi = FaultInjector::Instance();
  fi.Arm("p", FaultSpec::Nth(3));
  EXPECT_FALSE(fi.ShouldFail("p"));
  EXPECT_FALSE(fi.ShouldFail("p"));
  EXPECT_TRUE(fi.ShouldFail("p"));
  EXPECT_FALSE(fi.ShouldFail("p"));  // Auto-disarmed after firing.
  EXPECT_EQ(fi.fires("p"), 1u);
  EXPECT_EQ(fi.hits("p"), 3u);
}

TEST_F(FaultTest, AlwaysFiresUntilDisarmed) {
  auto& fi = FaultInjector::Instance();
  fi.Arm("p", FaultSpec::Always());
  EXPECT_TRUE(fi.ShouldFail("p"));
  EXPECT_TRUE(fi.ShouldFail("p"));
  fi.Disarm("p");
  EXPECT_FALSE(fi.ShouldFail("p"));
  EXPECT_EQ(fi.fires("p"), 2u);  // Counters survive disarm.
}

TEST_F(FaultTest, ProbabilityRoughlyCalibrated) {
  auto& fi = FaultInjector::Instance();
  fi.Arm("p", FaultSpec::Probability(0.3));
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    if (fi.ShouldFail("p")) ++fired;
  }
  EXPECT_GT(fired, 2000 * 0.3 * 0.7);
  EXPECT_LT(fired, 2000 * 0.3 * 1.3);
}

TEST_F(FaultTest, ArmFromEnvGrammar) {
  auto& fi = FaultInjector::Instance();
  ::setenv("TCVS_TEST_FAULTS", "a.b=oneshot@7,c.d=nth:2,e.f=prob:0.5", 1);
  ASSERT_TRUE(fi.ArmFromEnv("TCVS_TEST_FAULTS").ok());
  uint64_t arg = 0;
  EXPECT_TRUE(fi.ShouldFail("a.b", &arg));
  EXPECT_EQ(arg, 7u);
  EXPECT_FALSE(fi.ShouldFail("c.d"));
  EXPECT_TRUE(fi.ShouldFail("c.d"));
  ::unsetenv("TCVS_TEST_FAULTS");

  EXPECT_FALSE(fi.ArmFromString("garbage").ok());
  EXPECT_FALSE(fi.ArmFromString("p=walk:3").ok());
  EXPECT_FALSE(fi.ArmFromString("p=nth:0").ok());
}

TEST_F(FaultTest, ArmFromStringRejectsMalformedEntries) {
  auto& fi = FaultInjector::Instance();
  // A typo'd spec must fail loudly, not arm a point that never fires.
  EXPECT_FALSE(fi.ArmFromString("=always").ok());        // Missing point.
  EXPECT_FALSE(fi.ArmFromString("p=").ok());             // Missing trigger.
  EXPECT_FALSE(fi.ArmFromString("p=prob:").ok());        // Missing P.
  EXPECT_FALSE(fi.ArmFromString("p=prob:1.5").ok());     // P outside [0, 1].
  EXPECT_FALSE(fi.ArmFromString("p=prob:-0.1").ok());    // P outside [0, 1].
  EXPECT_FALSE(fi.ArmFromString("p=prob:abc").ok());     // Non-numeric P.
  EXPECT_FALSE(fi.ArmFromString("p=prob:0.5junk").ok()); // Trailing junk.
  EXPECT_FALSE(fi.ArmFromString("p=prob:0.5:").ok());    // Empty seed.
  EXPECT_FALSE(fi.ArmFromString("p=prob:0.5:0").ok());   // Zero seed.
  EXPECT_FALSE(fi.ArmFromString("p=prob:0.5:9x").ok());  // Non-numeric seed.
  EXPECT_FALSE(fi.ArmFromString("p=nth:").ok());         // Missing N.
  EXPECT_FALSE(fi.ArmFromString("p=nth:two").ok());      // Non-numeric N.
  EXPECT_FALSE(fi.ArmFromString("p=oneshot@").ok());     // Missing arg.
  EXPECT_FALSE(fi.ArmFromString("p=oneshot@2x").ok());   // Non-numeric arg.
  EXPECT_FALSE(fi.ArmFromString("p=oneshot@-3").ok());   // Negative arg.
  // None of the rejected entries may have armed anything.
  EXPECT_FALSE(fi.ShouldFail("p"));
}

TEST_F(FaultTest, ArmFromEnvRejectsMalformedList) {
  auto& fi = FaultInjector::Instance();
  ::setenv("TCVS_TEST_FAULTS", "a.b=oneshot,c.d=prob:nope", 1);
  EXPECT_FALSE(fi.ArmFromEnv("TCVS_TEST_FAULTS").ok());
  ::unsetenv("TCVS_TEST_FAULTS");
}

// Collects the fire pattern of `n` consecutive hits at `point`.
static std::vector<bool> FirePattern(FaultInjector* fi,
                                     const std::string& point, int n) {
  std::vector<bool> pattern;
  pattern.reserve(n);
  for (int i = 0; i < n; ++i) pattern.push_back(fi->ShouldFail(point));
  return pattern;
}

TEST_F(FaultTest, SeededProbabilityReplaysBitExactly) {
  auto& fi = FaultInjector::Instance();

  // Same point, same spec ⇒ identical draw sequence after re-arming —
  // the property that makes probabilistic fault campaigns replayable.
  fi.Arm("p", FaultSpec::Probability(0.5));
  const std::vector<bool> first = FirePattern(&fi, "p", 64);
  fi.Arm("p", FaultSpec::Probability(0.5));
  EXPECT_EQ(FirePattern(&fi, "p", 64), first);

  // Full Reset + re-arm (a fresh process) draws the same pattern too.
  fi.Reset();
  fi.Arm("p", FaultSpec::Probability(0.5));
  EXPECT_EQ(FirePattern(&fi, "p", 64), first);

  // An explicit seed selects a different (still reproducible) pattern.
  fi.Arm("p", FaultSpec::Probability(0.5, /*arg=*/0, /*seed=*/1234));
  const std::vector<bool> seeded = FirePattern(&fi, "p", 64);
  EXPECT_NE(seeded, first);
  fi.Arm("p", FaultSpec::Probability(0.5, /*arg=*/0, /*seed=*/1234));
  EXPECT_EQ(FirePattern(&fi, "p", 64), seeded);

  // The env grammar's prob:P:SEED arms the same stream as the factory.
  ASSERT_TRUE(fi.ArmFromString("p=prob:0.5:1234").ok());
  EXPECT_EQ(FirePattern(&fi, "p", 64), seeded);
}

TEST_F(FaultTest, ProbabilityStreamsArePerPoint) {
  auto& fi = FaultInjector::Instance();

  // Two points with the same spec draw *different* sequences (name-derived
  // seeds), and interleaving hits at one point never perturbs the other.
  fi.Arm("p.one", FaultSpec::Probability(0.5));
  fi.Arm("p.two", FaultSpec::Probability(0.5));
  const std::vector<bool> one = FirePattern(&fi, "p.one", 64);
  const std::vector<bool> two = FirePattern(&fi, "p.two", 64);
  EXPECT_NE(one, two);

  fi.Reset();
  fi.Arm("p.one", FaultSpec::Probability(0.5));
  fi.Arm("p.two", FaultSpec::Probability(0.5));
  std::vector<bool> interleaved_one;
  for (int i = 0; i < 64; ++i) {
    interleaved_one.push_back(fi.ShouldFail("p.one"));
    fi.ShouldFail("p.two");  // Noise on an unrelated point.
  }
  EXPECT_EQ(interleaved_one, one);
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialGrowthCappedWithJitterBounds) {
  rpc::RetryPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.max_backoff_ms = 1000;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    EXPECT_GE(policy.BackoffMs(0, &rng), 75);
    EXPECT_LE(policy.BackoffMs(0, &rng), 125);
    EXPECT_GE(policy.BackoffMs(2, &rng), 300);
    EXPECT_LE(policy.BackoffMs(2, &rng), 500);
    // Deep retries saturate at the cap (± jitter).
    EXPECT_LE(policy.BackoffMs(30, &rng), 1250);
    EXPECT_GE(policy.BackoffMs(30, &rng), 750);
  }
  policy.jitter = 0;
  EXPECT_EQ(policy.BackoffMs(0, nullptr), 100);
  EXPECT_EQ(policy.BackoffMs(1, nullptr), 200);
  EXPECT_EQ(policy.BackoffMs(10, nullptr), 1000);
}

TEST(RetryPolicyTest, RetryableTaxonomy) {
  EXPECT_TRUE(rpc::IsRetryableTransport(Status::Unavailable("x")));
  EXPECT_TRUE(rpc::IsRetryableTransport(Status::IOError("x")));
  EXPECT_TRUE(rpc::IsRetryableTransport(Status::DeadlineExceeded("x")));
  // The fatal side of the taxonomy: evidence, not noise.
  EXPECT_FALSE(rpc::IsRetryableTransport(Status::Corruption("x")));
  EXPECT_FALSE(rpc::IsRetryableTransport(Status::VerificationFailure("x")));
  EXPECT_FALSE(rpc::IsRetryableTransport(Status::DeviationDetected("x")));
  EXPECT_FALSE(rpc::IsRetryableTransport(Status::InvalidArgument("x")));
}

// ---------------------------------------------------------------------------
// Socket deadlines & connect classification
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ReceiveDeadlineExpiresAgainstSilentPeer) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = net::TcpConnection::Connect("127.0.0.1", listener->port(), 1000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  conn->set_io_timeout_ms(50);
  // Nobody ever answers: the read must give up with a deadline, not hang.
  auto frame = conn->ReceiveFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsDeadlineExceeded())
      << frame.status().ToString();
  // A deadline poisons the stream: the connection is closed.
  EXPECT_FALSE(conn->valid());
}

TEST_F(FaultTest, ConnectRefusedIsUnavailable) {
  // Bind-then-close yields a port that refuses connections.
  uint16_t dead_port;
  {
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  auto conn = net::TcpConnection::Connect("127.0.0.1", dead_port, 500);
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status().ToString();
}

TEST_F(FaultTest, InjectedConnectFailure) {
  FaultInjector::Instance().Arm(net::kFaultConnectFail, FaultSpec::OneShot());
  auto conn = net::TcpConnection::Connect("127.0.0.1", 1, 100);
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable());
}

// A frame cut inside the header, after the header, inside the payload, or
// past its end: the sender reports the injected fault and drops the
// connection, and the peer never mistakes a torn frame for a whole one.
TEST_F(FaultTest, TruncatedSendTearsTheFrame) {
  const Bytes payload = util::ToBytes("a payload of some length");
  const uint64_t frame_size = 4 + payload.size();
  for (uint64_t cut : {uint64_t{2}, uint64_t{4}, uint64_t{4 + 7},
                       frame_size + 100}) {
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    auto sender = net::TcpConnection::Connect("127.0.0.1", listener->port());
    ASSERT_TRUE(sender.ok());
    auto peer = listener->Accept();
    ASSERT_TRUE(peer.ok());
    peer->set_io_timeout_ms(2000);

    FaultInjector::Instance().Arm(net::kFaultSendTruncate,
                                  FaultSpec::OneShot(cut));
    Status sent = sender->SendFrame(payload);
    EXPECT_TRUE(sent.IsIOError()) << sent.ToString();
    EXPECT_EQ(FaultInjector::Instance().fires(net::kFaultSendTruncate), 1u);
    EXPECT_FALSE(sender->valid()) << "cut=" << cut;

    auto got = peer->ReceiveFrame();
    if (cut >= frame_size) {
      // Cut past the end: the whole frame went out, then the connection.
      ASSERT_TRUE(got.ok()) << "cut=" << cut << ": " << got.status().ToString();
      EXPECT_EQ(*got, payload);
      got = peer->ReceiveFrame();
    }
    EXPECT_TRUE(got.status().IsIOError())
        << "cut=" << cut << ": " << got.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// End-to-end resilience over a served repository
// ---------------------------------------------------------------------------

rpc::RemoteOptions FastRetryOptions() {
  rpc::RemoteOptions options;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff_ms = 5;
  options.retry.max_backoff_ms = 100;
  options.connect_timeout_ms = 1000;
  options.io_timeout_ms = 2000;
  return options;
}

class FaultedRepository : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    port_ = listener->port();
    server_thread_ = std::thread(
        [l = std::move(listener).ValueOrDie(), this]() mutable {
          (void)rpc::Serve(&l, &serialized_);
        });
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();  // Faults must not outlive the test.
    auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
    if (remote.ok()) (void)(*remote)->Shutdown();
    server_thread_.join();
    FaultTest::TearDown();
  }

  cvs::UntrustedServer repo_;
  cvs::SerializedServer serialized_{&repo_};
  uint16_t port_ = 0;
  std::thread server_thread_;
};

TEST_F(FaultedRepository, MidRequestDisconnectIsRetriedTransparently) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_,
                                           FastRetryOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());

  // The server drops the connection after receiving the next request,
  // before executing it. The client must reconnect and replay.
  FaultInjector::Instance().Arm(rpc::kFaultServeDropBefore,
                                FaultSpec::OneShot());
  auto rev = alice.Commit("f", "v2", 1);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 2u);
  EXPECT_GE((*remote)->transport_retries(), 1u);
  EXPECT_GE((*remote)->reconnects(), 1u);
  EXPECT_EQ(repo_.ctr(), 2u);  // Replay executed exactly once.
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck({alice.state()}).ok());
  remote->reset();
}

TEST_F(FaultedRepository, LostReplyIsReplayedIdempotently) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_,
                                           FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());

  // This time the server EXECUTES the transaction, then loses the reply.
  // The replayed request must surface the cached original reply — not a
  // second execution — or the counter chain would skip a state.
  FaultInjector::Instance().Arm(rpc::kFaultServeDropAfter,
                                FaultSpec::OneShot());
  auto rev = alice.Commit("f", "v2", 1);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 2u);
  EXPECT_GE((*remote)->transport_retries(), 1u);
  EXPECT_EQ(repo_.ctr(), 2u);  // NOT 3: the replay did not re-execute.
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck({alice.state()}).ok());
  remote->reset();
}

TEST_F(FaultedRepository, BitflipIsVerificationFailureAndNeverRetried) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_,
                                           FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("f", "honest content", 0).ok());

  // Flip one bit of the server's NEXT reply frame in flight (hit 1 is the
  // client's own request send; hit 2 is the server's reply).
  FaultInjector::Instance().Arm(net::kFaultSendBitflip, FaultSpec::Nth(2, 40));
  auto rec = alice.Checkout("f");
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsVerificationFailure() ||
              rec.status().IsDeviationDetected())
      << rec.status().ToString();
  // Corruption is evidence, not noise: no retry happened.
  EXPECT_EQ((*remote)->transport_retries(), 0u);
  EXPECT_EQ(FaultInjector::Instance().fires(net::kFaultSendBitflip), 1u);
  remote->reset();
}

TEST_F(FaultedRepository, TornFramesAreRetriedTransparently) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_,
                                           FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  constexpr uint64_t kPastEnd = uint64_t{1} << 20;
  uint64_t rev = 0;
  // Hit 1 is the client's request (torn before the server executes it);
  // hit 2 is the server's reply (torn after it did: the retry must replay
  // the cached reply, not execute twice).
  for (uint64_t hit : {1, 2}) {
    for (uint64_t cut : {uint64_t{2}, uint64_t{4}, uint64_t{4 + 7}, kPastEnd}) {
      const uint64_t retries = (*remote)->transport_retries();
      FaultInjector::Instance().Arm(net::kFaultSendTruncate,
                                    FaultSpec::Nth(hit, cut));
      auto committed = alice.Commit("f", "v" + std::to_string(rev + 1), rev);
      ASSERT_TRUE(committed.ok())
          << "hit=" << hit << " cut=" << cut << ": "
          << committed.status().ToString();
      rev = *committed;
      EXPECT_EQ(FaultInjector::Instance().fires(net::kFaultSendTruncate), 1u);
      // A reply cut past its end arrived whole: only the next call, on the
      // closed connection, reconnects.
      if (hit == 1 || cut != kPastEnd) {
        EXPECT_GT((*remote)->transport_retries(), retries)
            << "hit=" << hit << " cut=" << cut;
      }
      EXPECT_EQ(repo_.ctr(), rev);  // Executed exactly once.
    }
  }
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck({alice.state()}).ok());
  remote->reset();
}

TEST_F(FaultedRepository, RetryBudgetExhaustionYieldsUnavailable) {
  auto options = FastRetryOptions();
  options.retry.max_attempts = 3;
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_, options);
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());

  // Every send fails: the budget must run out with Unavailable, the
  // CLI's trigger for degraded read-only mode.
  FaultInjector::Instance().Arm(net::kFaultSendDrop, FaultSpec::Always());
  auto rev = alice.Commit("f", "v1", 0);
  ASSERT_FALSE(rev.ok());
  EXPECT_TRUE(rev.status().IsUnavailable()) << rev.status().ToString();
  FaultInjector::Instance().Disarm(net::kFaultSendDrop);
  remote->reset();
}

TEST_F(FaultedRepository, SlowPeerDelayFaultStillSucceeds) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_,
                                           FastRetryOptions());
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  // 30ms injected latency on the next two sends: well inside the deadline,
  // so the call just takes longer — no retry, no failure.
  FaultInjector::Instance().Arm(net::kFaultSendDelay, FaultSpec::Always(30));
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  FaultInjector::Instance().Disarm(net::kFaultSendDelay);
  EXPECT_EQ((*remote)->transport_retries(), 0u);
  remote->reset();
}

// ---------------------------------------------------------------------------
// Killed-and-restarted durable server
// ---------------------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("tcvs_fault_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST_F(FaultTest, KilledAndRestartedServerIsSurvivedByRetryingClient) {
  TempDir dir;
  mtree::TreeParams params;

  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();

  auto server1 = storage::DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(server1.ok());
  std::thread serve1([&listener, &server1] {
    (void)rpc::Serve(&listener.ValueOrDie(), server1->get());
  });

  auto options = FastRetryOptions();
  options.io_timeout_ms = 300;  // Backlogged connects must fail fast.
  options.connect_timeout_ms = 300;
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());

  // Kill the server on receipt of the next request: Serve() returns as if
  // the process died mid-request, before executing anything.
  FaultInjector::Instance().Arm(rpc::kFaultServeCrash, FaultSpec::OneShot());

  Result<uint64_t> rev = Status::Internal("not run");
  std::thread client([&alice, &rev] { rev = alice.Commit("f", "v2", 1); });

  // "Operator" side: wait for the crash, then restart from durable state
  // on the same port while the client is retrying.
  serve1.join();
  listener->Close();
  server1->reset();  // Release the WAL handle, as process death would.
  auto server2 = storage::DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(server2.ok()) << server2.status().ToString();
  EXPECT_EQ((*server2)->server()->ctr(), 1u);  // v2 never executed.
  auto listener2 = net::TcpListener::Bind(port);
  ASSERT_TRUE(listener2.ok()) << listener2.status().ToString();
  std::thread serve2([&listener2, &server2] {
    (void)rpc::Serve(&listener2.ValueOrDie(), server2->get());
  });

  client.join();
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 2u);
  EXPECT_GE((*remote)->reconnects(), 1u);
  EXPECT_EQ((*server2)->server()->ctr(), 2u);

  // The surviving client's verified view and the restarted server agree:
  // a fresh client reads v2 and the register chain checks out.
  cvs::VerifyingClient bob(2, remote->get());
  auto rec = bob.Checkout("f");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->content, "v2");
  EXPECT_TRUE(
      cvs::VerifyingClient::SyncCheck({alice.state(), bob.state()}).ok());

  ASSERT_TRUE((*remote)->Shutdown().ok());
  serve2.join();
}

// ---------------------------------------------------------------------------
// Degraded-mode substrate: the verified local cache
// ---------------------------------------------------------------------------

TEST(LocalCacheTest, RoundTripAndPrefixList) {
  cvs::LocalCache cache;
  cache.Put("src/a.c", cvs::FileRecord{1, "A"});
  cache.Put("src/b.c", cvs::FileRecord{3, "B"});
  cache.Put("other.txt", cvs::FileRecord{2, "O"});
  cache.Erase("other.txt");

  auto back = cvs::LocalCache::Deserialize(cache.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  const cvs::FileRecord* rec = back->Find("src/b.c");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->revision, 3u);
  EXPECT_EQ(rec->content, "B");
  EXPECT_EQ(back->Find("other.txt"), nullptr);

  auto listing = back->List("src/");
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].first, "src/a.c");
  EXPECT_EQ(listing[1].first, "src/b.c");
  EXPECT_TRUE(back->List("zzz").empty());

  EXPECT_FALSE(
      cvs::LocalCache::Deserialize(util::ToBytes("not a cache")).ok());

  // The file is the records and nothing else: trailing bytes (such as the
  // proof sidecar older builds appended) are Corruption, which tcvs treats
  // as a cold cache.
  Bytes trailing = cache.Serialize();
  util::Writer sidecar;
  sidecar.PutU64(1);
  sidecar.PutBytes(Bytes(32, 0xAB));
  sidecar.PutBytes(Bytes(32, 0xCD));
  const Bytes extra = sidecar.Take();
  trailing.insert(trailing.end(), extra.begin(), extra.end());
  EXPECT_TRUE(cvs::LocalCache::Deserialize(trailing).status().IsCorruption());
}

}  // namespace
}  // namespace tcvs
