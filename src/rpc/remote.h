#pragma once

#include <memory>
#include <string>

#include "cvs/trusted.h"
#include "net/socket.h"
#include "rpc/protocol.h"
#include "rpc/retry.h"
#include "util/metrics.h"
#include "util/random.h"

namespace tcvs {
namespace rpc {

/// \name Fault points consulted by the serve loop (see util/fault.h).
/// @{
/// Drop the connection after receiving a request, BEFORE executing it
/// (process died mid-request; the transaction never happened).
inline constexpr char kFaultServeDropBefore[] = "rpc.serve.drop_before";
/// Execute the request, then drop the connection WITHOUT replying (the
/// reply was lost; the transaction DID happen — exercises replay dedup).
inline constexpr char kFaultServeDropAfter[] = "rpc.serve.drop_after";
/// Serve() returns immediately, as if the process was killed. The caller
/// (test harness) can then re-open state and serve again — a restart.
inline constexpr char kFaultServeCrash[] = "rpc.serve.crash";
/// @}

/// \brief Transport configuration for RemoteServer.
struct RemoteOptions {
  RetryPolicy retry;
  /// Deadline for each TCP connect (0 = none).
  int connect_timeout_ms = 2000;
  /// Deadline for each frame send/receive (0 = none). Bounds how long a
  /// hung server can wedge a client before the retry machinery kicks in.
  int io_timeout_ms = 5000;
};

/// \brief cvs::ServerApi over a TCP connection to a `tcvsd` server: the
/// verifying client's transport for real deployments.
///
/// The transport is resilient: every call carries a request id and runs
/// under a RetryPolicy — on a transport fault (connection dropped, peer
/// unreachable, deadline elapsed) it reconnects with exponential backoff
/// and replays the in-flight request. The serve loop's per-id reply cache
/// makes the replay idempotent, so the protocol's operation counters never
/// skip. Non-transport failures — corruption, verification — are NEVER
/// retried: on a verified channel a malformed reply is evidence of
/// misbehavior, and retrying would let a flaky adversary probe silently.
class RemoteServer : public cvs::ServerApi {
 public:
  static Result<std::unique_ptr<RemoteServer>> Connect(
      const std::string& host, uint16_t port, RemoteOptions options = {});

  /// ServerApi replies stay quarantined across the transport: the payload is
  /// parsed (structure only) and re-wrapped; VerifyingClient's chain walk is
  /// still the only endorser.
  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override;
  Result<util::Tainted<cvs::ListReply>> List(uint32_t user,
                                             const std::string& prefix) override;
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override;
  mtree::TreeParams tree_params() const override { return params_; }

  /// Asks the server's serving loop to exit (operator tooling / tests).
  Status Shutdown();

  /// Transport-level retries performed so far (observability / tests).
  uint64_t transport_retries() const { return retries_; }
  /// Reconnects performed after the initial connection (observability).
  uint64_t reconnects() const { return reconnects_; }

 private:
  RemoteServer(std::string host, uint16_t port, RemoteOptions options,
               net::TcpConnection conn, mtree::TreeParams params,
               uint64_t rng_seed)
      : host_(std::move(host)),
        port_(port),
        options_(options),
        conn_(std::move(conn)),
        params_(params),
        rng_(rng_seed) {}

  /// One reconnect attempt (no backoff of its own).
  Status Reconnect();

  /// Sends `request` and awaits the reply, retrying transport faults per
  /// the policy. Assigns the request id.
  Result<RpcResponse> Call(RpcRequest request);

  std::string host_;
  uint16_t port_ = 0;
  RemoteOptions options_;
  net::TcpConnection conn_;
  mtree::TreeParams params_;
  util::Rng rng_;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
};

/// Deadline for reading a request frame and for writing its reply on a
/// served connection (RemoteOptions::io_timeout_ms's default): a peer that
/// stalls mid-frame holds a serve worker this long at most.
inline constexpr int kServeFrameTimeoutMs = 5000;

/// \brief Concurrency knobs for Serve().
struct ServeOptions {
  /// Worker threads answering request frames, however many clients are
  /// connected: a connection holds a worker for one request at a time.
  int num_threads = 4;
  /// Bounded-blocking slice of each worker's readiness wait: the latency
  /// bound on noticing shutdown, NOT a client-visible deadline (idle
  /// connections live forever).
  int poll_interval_ms = 50;
  /// Slow-op capture threshold: a served request whose whole-frame handling
  /// exceeds this emits a JSON-lines slow-op record (method, latency, trace
  /// id, span subtree, per-request cost) on stderr and bumps
  /// `rpc.serve.slow_ops_total`. 0 (default) disables capture and its
  /// per-request span collection overhead.
  uint64_t slow_op_us = 0;
};

/// \brief Serves any ServerApi on `listener` with a net::ServeLoop of
/// `options.num_threads` workers: each readable connection gets a worker
/// for one request frame, then goes back to the loop's readiness set, so
/// every connected client is served whatever the pool size. Returns after a
/// kShutdown request (OK) or on a listener error / injected crash, with
/// every worker joined and every connection closed.
///
/// Replies to counter-bearing requests (Transact/List) are cached per
/// request id (bounded LRU), so a client replaying a request whose reply
/// was lost gets the original reply back instead of a second execution.
/// A request id is claimed before it executes; a concurrent duplicate
/// waits for the claim's reply, so two retries of one id never both
/// execute. Execution itself holds no serve lock: `server` MUST be
/// thread-safe (DurableServer is; wrap a single-threaded backend in
/// cvs::SerializedServer), and requests of different clients overlap.
Status Serve(net::TcpListener* listener, cvs::ServerApi* server,
             ServeOptions options = {});

}  // namespace rpc
}  // namespace tcvs
