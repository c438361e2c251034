// Network stack tests: framing over loopback TCP, RPC round trips, and the
// full verifying-client flow against a served repository — the deployment
// path of the `tcvsd` / `tcvs` tools.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "rpc/protocol.h"
#include "rpc/remote.h"
#include "util/random.h"
#include "util/serde.h"

namespace tcvs {
namespace {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(NetTest, FrameRoundTrip) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  uint16_t port = listener->port();
  ASSERT_GT(port, 0);

  std::thread client_thread([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->SendFrame(util::ToBytes("hello")).ok());
    ASSERT_TRUE(conn->SendFrame(Bytes{}).ok());  // Empty frame is legal.
    auto echo = conn->ReceiveFrame();
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(util::ToString(*echo), "world");
  });

  auto server_conn = listener->Accept();
  ASSERT_TRUE(server_conn.ok());
  auto f1 = server_conn->ReceiveFrame();
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(util::ToString(*f1), "hello");
  auto f2 = server_conn->ReceiveFrame();
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(f2->empty());
  ASSERT_TRUE(server_conn->SendFrame(util::ToBytes("world")).ok());
  client_thread.join();
}

// Larger than any socket buffer, so sendmsg returns short and the writer
// must advance its iovec within the payload; below kMaxFrame, so legal.
TEST(NetTest, LargeFrame) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  util::Rng rng(5);
  const Bytes big = rng.RandomBytes(12 << 20);  // 12 MiB.
  ASSERT_LT(big.size(), net::TcpConnection::kMaxFrame);

  std::thread client_thread([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", listener->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->SendFrame(big).ok());
    auto echo = conn->ReceiveFrame();
    ASSERT_TRUE(echo.ok()) << echo.status().ToString();
    EXPECT_TRUE(*echo == big);
  });
  auto server_conn = listener->Accept();
  ASSERT_TRUE(server_conn.ok());
  auto got = server_conn->ReceiveFrame();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == big);
  ASSERT_TRUE(server_conn->SendFrame(*got).ok());
  client_thread.join();
}

bool NagleOff(const net::TcpConnection& conn) {
  int on = 0;
  socklen_t len = sizeof(on);
  return ::getsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY, &on, &len) == 0 &&
         on != 0;
}

// Nagle plus the peer's delayed ACK can hold a reply for ~40 ms (see
// SequentialRoundTripsDoNotStall), so both ends of a connection run with
// TCP_NODELAY.
TEST(NetTest, BothEndsRunWithNagleOff) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto client = net::TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(NagleOff(*client));
  EXPECT_TRUE(NagleOff(*server));
}

TEST(NetTest, DisconnectYieldsIoError) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread client_thread([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", listener->port());
    ASSERT_TRUE(conn.ok());
    conn->Close();
  });
  auto server_conn = listener->Accept();
  ASSERT_TRUE(server_conn.ok());
  EXPECT_TRUE(server_conn->ReceiveFrame().status().IsIOError());
  client_thread.join();
}

TEST(NetTest, OversizedFrameRejectedBySender) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread client_thread([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", listener->port());
    ASSERT_TRUE(conn.ok());
    Bytes huge(net::TcpConnection::kMaxFrame + 1);
    EXPECT_TRUE(conn->SendFrame(huge).IsInvalidArgument());
  });
  auto server_conn = listener->Accept();
  client_thread.join();
}

// ---------------------------------------------------------------------------
// RPC wire format
// ---------------------------------------------------------------------------

TEST(RpcProtocolTest, RequestRoundTrip) {
  rpc::RpcRequest req;
  req.type = rpc::RpcType::kTransact;
  req.user = 7;
  req.ops.push_back({cvs::FileOp::Kind::kCommit, "a.c", "content", 3});
  req.ops.push_back({cvs::FileOp::Kind::kCheckout, "b.c", "", 0});
  auto back = rpc::RpcRequest::Deserialize(req.Serialize());
  ASSERT_TRUE(back.ok());
  const rpc::RpcRequest& got = back->untrusted();
  EXPECT_EQ(got.user, 7u);
  ASSERT_EQ(got.ops.size(), 2u);
  EXPECT_EQ(got.ops[0].path, "a.c");
  EXPECT_EQ(got.ops[0].base_revision, 3u);
  EXPECT_EQ(got.ops[1].kind, cvs::FileOp::Kind::kCheckout);
}

// One request wire version: the first byte must be kRpcWireVersion. A
// foreign version byte, or an old-layout frame that starts directly with a
// type tag, is InvalidArgument — never misparsed as some other request.
TEST(RpcProtocolTest, ForeignWireVersionRejected) {
  rpc::RpcRequest req;
  req.type = rpc::RpcType::kList;
  req.user = 9;
  req.prefix = "dir/";
  req.request_id = 77;
  req.trace_id = 0x1234;
  const Bytes wire = req.Serialize();
  ASSERT_EQ(wire.front(), rpc::kRpcWireVersion);
  auto back = rpc::RpcRequest::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->untrusted().request_id, 77u);
  EXPECT_EQ(back->untrusted().trace_id, 0x1234u);

  for (int version = 0; version <= 0xFF; ++version) {
    if (version == rpc::kRpcWireVersion) continue;
    Bytes foreign = wire;
    foreign[0] = static_cast<uint8_t>(version);
    auto parsed = rpc::RpcRequest::Deserialize(foreign);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << "version " << version;
  }

  // The v1 layout: type byte first, no version, no trace context.
  for (uint8_t type = 1; type <= 9; ++type) {
    util::Writer v1;
    v1.PutU8(type);
    v1.PutU32(9);  // user
    v1.PutU32(0);  // no ops
    v1.PutString("dir/");
    v1.PutU64(0);   // old_size
    v1.PutU64(77);  // request_id
    auto parsed = rpc::RpcRequest::Deserialize(v1.Take());
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << "v1 type " << +type;
  }
}

TEST(RpcProtocolTest, ResponseCarriesStatus) {
  rpc::RpcResponse resp =
      rpc::RpcResponse::FromStatus(Status::NotFound("missing"));
  auto back = rpc::RpcResponse::Deserialize(resp.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->untrusted().ToStatus().IsNotFound());
  EXPECT_EQ(back->untrusted().ToStatus().message(), "missing");
}

TEST(RpcProtocolTest, JunkNeverCrashes) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = rng.RandomBytes(rng.Uniform(120));
    (void)rpc::RpcRequest::Deserialize(junk);
    (void)rpc::RpcResponse::Deserialize(junk);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: verifying clients over TCP against a served repository
// ---------------------------------------------------------------------------

class ServedRepository : public ::testing::Test {
 protected:
  void SetUp() override {
    auto listener = net::TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok());
    port_ = listener->port();
    server_thread_ = std::thread(
        [l = std::move(listener).ValueOrDie(), this]() mutable {
          (void)rpc::Serve(&l, &serialized_);
        });
  }

  void TearDown() override {
    auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
    if (remote.ok()) (void)(*remote)->Shutdown();
    server_thread_.join();
  }

  cvs::UntrustedServer repo_;
  cvs::SerializedServer serialized_{&repo_};
  uint16_t port_ = 0;
  std::thread server_thread_;
};

// The deployed round trip is work-bound, not stall-bound: 200 sequential
// GetParams calls (no protocol work at all) take ~0.1 ms each over
// loopback. Linux's Nagle holds a segment smaller than the MSS while an
// earlier small segment is unacknowledged, and the peer's delayed ACK
// releases it ~40 ms later — the fate of a frame written as a header send
// plus a payload send on a socket with Nagle on.
TEST_F(ServedRepository, SequentialRoundTripsDoNotStall) {
  auto conn = net::TcpConnection::Connect("127.0.0.1", port_, 1000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  conn->set_io_timeout_ms(5000);
  rpc::RpcRequest req;
  req.type = rpc::RpcType::kGetParams;
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    req.request_id = static_cast<uint64_t>(i + 1);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(conn->SendFrame(req.Serialize()).ok());
    auto reply = conn->ReceiveFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  EXPECT_LT(us[us.size() / 2], 10'000.0) << "p50 round trip in us";
}

TEST_F(ServedRepository, FullVerifiedFlowOverTcp) {
  auto alice_remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
  ASSERT_TRUE(alice_remote.ok()) << alice_remote.status().ToString();
  cvs::VerifyingClient alice(1, alice_remote->get());

  auto rev = alice.Commit("net/main.c", "int main(){}\n", 0);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 1u);

  auto rec = alice.Checkout("net/main.c");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->content, "int main(){}\n");

  // Second client on its own connection (served after alice disconnects —
  // the server loop is sequential, so disconnect first).
  Bytes alice_state = alice.state().Serialize();
  alice_remote->reset();

  auto bob_remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
  ASSERT_TRUE(bob_remote.ok());
  cvs::VerifyingClient bob(2, bob_remote->get());
  EXPECT_TRUE(bob.Commit("net/main.c", "v2\n", 1).ok());
  EXPECT_TRUE(bob.Commit("net/main.c", "v3\n", 1).status().IsFailedPrecondition());

  // Offline sync-up over the persisted states.
  auto restored = cvs::ClientState::Deserialize(alice_state);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck({*restored, bob.state()}).ok());
}

TEST_F(ServedRepository, MultiFileTransactionOverTcp) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  auto revs = alice.CommitMany({
      {cvs::FileOp::Kind::kCommit, "x", "X", 0},
      {cvs::FileOp::Kind::kCommit, "y", "Y", 0},
  });
  ASSERT_TRUE(revs.ok()) << revs.status().ToString();
  EXPECT_EQ(repo_.ctr(), 1u);
  auto records = alice.CheckoutMany({"x", "y"});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0]->content, "X");
  EXPECT_EQ((*records)[1]->content, "Y");
}

TEST_F(ServedRepository, AuthenticatedListingOverTcp) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("src/a.c", "A", 0).ok());
  ASSERT_TRUE(alice.Commit("src/b.c", "B", 0).ok());
  ASSERT_TRUE(alice.Commit("other.txt", "O", 0).ok());
  auto listing = alice.ListDir("src/");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing->size(), 2u);
  EXPECT_TRUE(cvs::VerifyingClient::SyncUp({&alice}).ok());
}

TEST_F(ServedRepository, TamperBehindRpcDetectedAtSyncCheck) {
  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port_);
  ASSERT_TRUE(remote.ok());
  cvs::VerifyingClient alice(1, remote->get());
  ASSERT_TRUE(alice.Commit("f", "honest", 0).ok());
  // The daemon's operator rewrites the stored file out-of-band.
  repo_.mutable_tree_for_testing()->Upsert(
      util::ToBytes("f"), cvs::FileRecord{1, "evil"}.Serialize());
  ASSERT_TRUE(alice.Checkout("f").ok());  // Locally consistent...
  EXPECT_TRUE(cvs::VerifyingClient::SyncCheck({alice.state()})
                  .IsDeviationDetected());  // ...but the chain broke.
}

// A server cannot talk a client into tree params below 2, under which the
// client's replay would reject the server's own honest proofs.
class FanoutOneServer : public cvs::ServerApi {
 public:
  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
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
  mtree::TreeParams tree_params() const override { return {1, 1}; }

 private:
  cvs::UntrustedServer inner_;
};

TEST(RpcParamsTest, ServerReportingFanoutBelowTwoIsRejectedAtConnect) {
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  FanoutOneServer server;
  cvs::SerializedServer serialized(&server);
  std::thread serve(
      [l = std::move(listener).ValueOrDie(), &serialized]() mutable {
        (void)rpc::Serve(&l, &serialized);
      });

  auto remote = rpc::RemoteServer::Connect("127.0.0.1", port);
  EXPECT_TRUE(remote.status().IsInvalidArgument()) << remote.status().ToString();

  // RemoteServer cannot connect, so stop the loop with a raw Shutdown frame.
  auto conn = net::TcpConnection::Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.ok());
  rpc::RpcRequest shutdown;
  shutdown.type = rpc::RpcType::kShutdown;
  ASSERT_TRUE(conn->SendFrame(shutdown.Serialize()).ok());
  (void)conn->ReceiveFrame();
  serve.join();
}

}  // namespace
}  // namespace tcvs
