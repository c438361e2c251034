#include "rpc/remote.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/serve_loop.h"
#include "util/cost.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/serde.h"

namespace tcvs {
namespace rpc {

namespace {

Bytes SerializeParams(const mtree::TreeParams& params) {
  util::Writer w;
  w.PutU64(params.max_leaf_entries);
  w.PutU64(params.max_internal_keys);
  return w.Take();
}

Result<mtree::TreeParams> DeserializeParams(const Bytes& data) {
  util::Reader r(data);
  mtree::TreeParams params;
  TCVS_ASSIGN_OR_RETURN(uint64_t leaf, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(uint64_t internal, r.GetU64());
  params.max_leaf_entries = leaf;
  params.max_internal_keys = internal;
  // The client replays splits with these; a server must not talk it into
  // parameters under which its own honest proofs fail to verify.
  TCVS_RETURN_NOT_OK(mtree::ValidateTreeParams(params));
  return params;
}

uint64_t SeedFromOs() {
  std::random_device rd;
  uint64_t hi = rd(), lo = rd();
  uint64_t t = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (hi << 32) ^ lo ^ t;
}

/// A payload that fails to parse on a *successfully framed* reply is not a
/// transport fault: the channel delivered exactly what the untrusted server
/// sent. Surface it as a verification failure — loud, never retried.
/// The parse yields a still-quarantined value: structural validity is not
/// endorsement, and the Tainted wrapper rides back to VerifyingClient intact.
template <typename T>
Result<util::Tainted<T>> DeserializeVerified(const Bytes& payload,
                                             const char* what) {
  auto parsed = T::Deserialize(payload);
  if (!parsed.ok()) {
    return Status::VerificationFailure(std::string("malformed ") + what +
                                       " from server: " +
                                       parsed.status().ToString());
  }
  return parsed;
}

/// Per-method client call latency, indexed by RpcType (1-based, bounds
/// guaranteed by RpcRequest construction). Literal names keep the
/// metric-name lint rule able to see the full inventory.
util::LatencyHistogram* ClientMethodLatency(RpcType type) {
  static util::LatencyHistogram* const kLatency[] = {
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.client.transact.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.client.get_params.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.client.shutdown.latency_us"),
      util::MetricsRegistry::Instance().GetLatency("rpc.client.list.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.client.log_checkpoint.latency_us"),
  };
  return kLatency[static_cast<size_t>(type) - 1];
}

/// Stable lowercase method name, same indexing (slow-op records, tooling).
const char* RpcMethodName(RpcType type) {
  static const char* const kNames[] = {
      "transact", "get_params", "shutdown", "list", "log_checkpoint",
  };
  return kNames[static_cast<size_t>(type) - 1];
}

/// Per-method serve-side latency (whole frame: parse, execute, serialize),
/// same indexing. Recorded with the request's trace id as an exemplar, so a
/// p99 spike on /metrics links to a joinable trace.
util::LatencyHistogram* ServeMethodLatency(RpcType type) {
  static util::LatencyHistogram* const kLatency[] = {
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.serve.transact.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.serve.get_params.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.serve.shutdown.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.serve.list.latency_us"),
      util::MetricsRegistry::Instance().GetLatency(
          "rpc.serve.log_checkpoint.latency_us"),
  };
  return kLatency[static_cast<size_t>(type) - 1];
}

/// Per-method aggregated request cost, for the methods that do real
/// protocol work (GetParams and Shutdown cost nothing interesting).
/// Each field mirrors one util::CostCounters field; /varz divides by the
/// method's requests_total to report cost per operation.
struct MethodCostCounters {
  util::Counter* hashes;
  util::Counter* bytes_hashed;
  util::Counter* vo_bytes;
  util::Counter* wal_appends;
  util::Counter* wal_fsync_wait_us;
  util::Counter* queue_us;
  util::Counter* work_us;

  /// `work_us` is derived by the caller as latency − queue − fsync wait
  /// (clamped at 0), so per method `queue + work + fsync_wait` sums to the
  /// recorded latency — the decomposition `tcvs top` and `/varz` report.
  void Add(const util::CostCounters& cost, uint64_t derived_work_us) const {
    if (cost.hashes != 0) hashes->Increment(cost.hashes);
    if (cost.bytes_hashed != 0) bytes_hashed->Increment(cost.bytes_hashed);
    if (cost.vo_bytes_built != 0) vo_bytes->Increment(cost.vo_bytes_built);
    if (cost.wal_appends != 0) wal_appends->Increment(cost.wal_appends);
    if (cost.wal_fsync_wait_us != 0) {
      wal_fsync_wait_us->Increment(cost.wal_fsync_wait_us);
    }
    if (cost.queue_us != 0) queue_us->Increment(cost.queue_us);
    if (derived_work_us != 0) work_us->Increment(derived_work_us);
  }
};

const MethodCostCounters* ServeMethodCost(RpcType type) {
  auto& registry = util::MetricsRegistry::Instance();
  static const MethodCostCounters kTransact = {
      registry.GetCounter("rpc.serve.transact.cost.hashes_total"),
      registry.GetCounter("rpc.serve.transact.cost.bytes_hashed_total"),
      registry.GetCounter("rpc.serve.transact.cost.vo_bytes_total"),
      registry.GetCounter("rpc.serve.transact.cost.wal_appends_total"),
      registry.GetCounter("rpc.serve.transact.cost.wal_fsync_wait_us_total"),
      registry.GetCounter("rpc.serve.transact.cost.queue_us_total"),
      registry.GetCounter("rpc.serve.transact.cost.work_us_total"),
  };
  static const MethodCostCounters kList = {
      registry.GetCounter("rpc.serve.list.cost.hashes_total"),
      registry.GetCounter("rpc.serve.list.cost.bytes_hashed_total"),
      registry.GetCounter("rpc.serve.list.cost.vo_bytes_total"),
      registry.GetCounter("rpc.serve.list.cost.wal_appends_total"),
      registry.GetCounter("rpc.serve.list.cost.wal_fsync_wait_us_total"),
      registry.GetCounter("rpc.serve.list.cost.queue_us_total"),
      registry.GetCounter("rpc.serve.list.cost.work_us_total"),
  };
  static const MethodCostCounters kLogCheckpoint = {
      registry.GetCounter("rpc.serve.log_checkpoint.cost.hashes_total"),
      registry.GetCounter("rpc.serve.log_checkpoint.cost.bytes_hashed_total"),
      registry.GetCounter("rpc.serve.log_checkpoint.cost.vo_bytes_total"),
      registry.GetCounter("rpc.serve.log_checkpoint.cost.wal_appends_total"),
      registry.GetCounter(
          "rpc.serve.log_checkpoint.cost.wal_fsync_wait_us_total"),
      registry.GetCounter("rpc.serve.log_checkpoint.cost.queue_us_total"),
      registry.GetCounter("rpc.serve.log_checkpoint.cost.work_us_total"),
  };
  switch (type) {
    case RpcType::kTransact: return &kTransact;
    case RpcType::kList: return &kList;
    case RpcType::kLogCheckpoint: return &kLogCheckpoint;
    default: return nullptr;
  }
}

/// Per-method serve-side request counts, same indexing.
util::Counter* ServeMethodRequests(RpcType type) {
  static util::Counter* const kRequests[] = {
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.serve.transact.requests_total"),
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.serve.get_params.requests_total"),
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.serve.shutdown.requests_total"),
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.serve.list.requests_total"),
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.serve.log_checkpoint.requests_total"),
  };
  return kRequests[static_cast<size_t>(type) - 1];
}

}  // namespace

Result<std::unique_ptr<RemoteServer>> RemoteServer::Connect(
    const std::string& host, uint16_t port, RemoteOptions options) {
  util::Rng rng(SeedFromOs());
  // The handshake is traced like any call: its context rides the request
  // header (same across retries), so the server's handler span joins this
  // trace instead of minting an orphan one.
  TCVS_SPAN("rpc.client.connect");
  const util::SpanContext span_ctx = util::CurrentSpanContext();
  Status last = Status::Unavailable("no connect attempt made");
  for (int attempt = 0; attempt < options.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options.retry.BackoffMs(attempt - 1, &rng)));
    }
    auto conn_or =
        net::TcpConnection::Connect(host, port, options.connect_timeout_ms);
    if (!conn_or.ok()) {
      if (!IsRetryableTransport(conn_or.status())) return conn_or.status();
      last = conn_or.status();
      continue;
    }
    net::TcpConnection conn = std::move(conn_or).ValueOrDie();
    conn.set_io_timeout_ms(options.io_timeout_ms);
    // Fetch tree parameters so the client can replay proofs.
    RpcRequest req;
    req.type = RpcType::kGetParams;
    req.trace_id = span_ctx.trace_id;
    req.span_id = span_ctx.span_id;
    req.parent_span_id = span_ctx.parent_span_id;
    Status st = conn.SendFrame(req.Serialize());
    Result<Bytes> frame = st.ok() ? conn.ReceiveFrame() : st;
    if (!frame.ok()) {
      if (!IsRetryableTransport(frame.status())) return frame.status();
      last = frame.status();
      continue;
    }
    TCVS_ASSIGN_OR_RETURN(util::Tainted<RpcResponse> quarantined,
                          RpcResponse::Deserialize(*frame));
    TCVS_ASSIGN_OR_RETURN(RpcResponse resp,
                          CheckResponseEnvelope(std::move(quarantined)));
    TCVS_RETURN_NOT_OK(resp.ToStatus());
    TCVS_ASSIGN_OR_RETURN(mtree::TreeParams params,
                          DeserializeParams(resp.payload));
    return std::unique_ptr<RemoteServer>(
        new RemoteServer(host, port, options, std::move(conn), params,
                         rng.Next()));
  }
  return Status::Unavailable(
      "server unreachable after " + std::to_string(options.retry.max_attempts) +
      " attempts; last error: " + last.ToString());
}

Status RemoteServer::Reconnect() {
  auto conn_or =
      net::TcpConnection::Connect(host_, port_, options_.connect_timeout_ms);
  if (!conn_or.ok()) return conn_or.status();
  conn_ = std::move(conn_or).ValueOrDie();
  conn_.set_io_timeout_ms(options_.io_timeout_ms);
  ++reconnects_;
  static util::Counter* const reconnects =
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.client.reconnects_total");
  reconnects->Increment();
  return Status::OK();
}

Result<RpcResponse> RemoteServer::Call(RpcRequest request) {
  static util::Counter* const retry_count =
      util::MetricsRegistry::Instance().GetCounter("rpc.client.retries_total");
  static util::Counter* const deadline_count =
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.client.deadline_exceeded_total");
  static util::Counter* const transport_errors =
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.client.transport_errors_total");
  static util::Counter* const bytes_sent =
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.client.bytes_sent_total");
  static util::Counter* const bytes_received =
      util::MetricsRegistry::Instance().GetCounter(
          "rpc.client.bytes_received_total");
  util::LatencyHistogram* const latency = ClientMethodLatency(request.type);
  // The call itself is a span (child of whatever the caller had open); its
  // identity rides the request header so the server's handler spans join
  // this trace. Injection happens before Serialize — every retry carries
  // the same context, like the same request id.
  TCVS_SPAN("rpc.client.call");
  const util::SpanContext span_ctx = util::CurrentSpanContext();
  request.trace_id = span_ctx.trace_id;
  request.span_id = span_ctx.span_id;
  request.parent_span_id = span_ctx.parent_span_id;
  const uint64_t start_us = util::MonotonicMicros();

  // One id per logical call, shared by all retries: the serve loop's reply
  // cache turns a replayed execution into a replayed *reply*.
  do {
    request.request_id = rng_.Next();
  } while (request.request_id == 0);
  const Bytes wire = request.Serialize();

  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      retry_count->Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.retry.BackoffMs(attempt - 1, &rng_)));
    }
    if (!conn_.valid()) {
      Status st = Reconnect();
      if (!st.ok()) {
        if (!IsRetryableTransport(st)) return st;
        last = st;
        continue;
      }
    }
    Status st = conn_.SendFrame(wire);
    if (st.ok()) bytes_sent->Increment(wire.size());
    Result<Bytes> frame = st.ok() ? conn_.ReceiveFrame() : st;
    if (!frame.ok()) {
      transport_errors->Increment();
      if (frame.status().IsDeadlineExceeded()) deadline_count->Increment();
      if (!IsRetryableTransport(frame.status())) return frame.status();
      last = frame.status();
      conn_.Close();  // Stream state is unknown; reconnect on next attempt.
      continue;
    }
    bytes_received->Increment(frame->size());
    auto resp = RpcResponse::Deserialize(*frame);
    if (!resp.ok()) {
      // The frame arrived intact but does not parse: corruption on a
      // verified channel, not a transport fault. Fail loud, never retry.
      return Status::VerificationFailure("malformed RPC response: " +
                                         resp.status().ToString());
    }
    // Envelope endorsement only: the payload inside remains quarantined
    // until VerifyingClient's chain walk accepts it.
    auto checked = CheckResponseEnvelope(std::move(*resp));
    if (!checked.ok()) return checked.status();  // Never retried either.
    latency->Record(util::MonotonicMicros() - start_us);
    return checked;
  }
  return Status::Unavailable(
      "server unreachable after " +
      std::to_string(options_.retry.max_attempts) +
      " attempts; last error: " + last.ToString());
}

Result<util::Tainted<cvs::ServerReply>> RemoteServer::Transact(
    uint32_t user, const std::vector<cvs::FileOp>& ops) {
  RpcRequest req;
  req.type = RpcType::kTransact;
  req.user = user;
  req.ops = ops;
  TCVS_ASSIGN_OR_RETURN(RpcResponse resp, Call(std::move(req)));
  TCVS_RETURN_NOT_OK(resp.ToStatus());
  return DeserializeVerified<cvs::ServerReply>(resp.payload, "transact reply");
}

Result<util::Tainted<cvs::ListReply>> RemoteServer::List(
    uint32_t user, const std::string& prefix) {
  RpcRequest req;
  req.type = RpcType::kList;
  req.user = user;
  req.prefix = prefix;
  TCVS_ASSIGN_OR_RETURN(RpcResponse resp, Call(std::move(req)));
  TCVS_RETURN_NOT_OK(resp.ToStatus());
  return DeserializeVerified<cvs::ListReply>(resp.payload, "list reply");
}

Result<util::Tainted<cvs::LogCheckpointReply>> RemoteServer::LogCheckpoint(
    uint64_t old_size) {
  RpcRequest req;
  req.type = RpcType::kLogCheckpoint;
  req.old_size = old_size;
  TCVS_ASSIGN_OR_RETURN(RpcResponse resp, Call(std::move(req)));
  TCVS_RETURN_NOT_OK(resp.ToStatus());
  return DeserializeVerified<cvs::LogCheckpointReply>(resp.payload,
                                                      "log checkpoint reply");
}

Status RemoteServer::Shutdown() {
  RpcRequest req;
  req.type = RpcType::kShutdown;
  TCVS_ASSIGN_OR_RETURN(RpcResponse resp, Call(std::move(req)));
  return resp.ToStatus();
}

namespace {

/// Bounded request-id → serialized-reply cache: enough to cover every
/// client's in-flight request many times over, small enough to be free.
class ReplyCache {
 public:
  static constexpr size_t kCapacity = 128;

  const Bytes* Find(uint64_t id) const {
    auto it = replies_.find(id);
    return it == replies_.end() ? nullptr : &it->second;
  }

  void Insert(uint64_t id, Bytes reply) {
    static util::Counter* const insertions =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.reply_cache.insertions_total");
    static util::Counter* const evictions =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.reply_cache.evictions_total");
    if (replies_.count(id) > 0) return;
    if (order_.size() >= kCapacity) {
      replies_.erase(order_.front());
      order_.pop_front();
      evictions->Increment();
    }
    order_.push_back(id);
    replies_.emplace(id, std::move(reply));
    insertions->Increment();
  }

 private:
  std::unordered_map<uint64_t, Bytes> replies_;
  std::deque<uint64_t> order_;
};

/// A server reply on the wire, or its error status. Pass-through of the
/// quarantined reply: serializing its bytes claims nothing about them (the
/// client re-quarantines on parse).
template <typename Reply>
RpcResponse PassThrough(const Result<util::Tainted<Reply>>& reply_or) {
  if (!reply_or.ok()) return RpcResponse::FromStatus(reply_or.status());
  RpcResponse resp;
  resp.payload = reply_or->untrusted().Serialize();
  return resp;
}

/// \brief What every serve worker shares for one Serve() call. The leaf
/// *execution* lock `mu_` is held across the reply-cache-lookup → execute →
/// cache-insert triple, so a replayed request id never executes twice and
/// the (single-threaded) ServerApi sees one caller at a time.
class ServeState {
 public:
  explicit ServeState(cvs::ServerApi* api) : api_(api) {}

  /// Handles one request frame end to end; returns the wire reply.
  /// Sets *shutdown when the frame was a kShutdown request. On a
  /// well-formed request, *type_out is the parsed method (left untouched
  /// for malformed frames) and *trace_id_out the trace the handler ran
  /// under — the caller feeds both into latency exemplars and slow-op
  /// records.
  Bytes HandleFrame(const Bytes& frame, bool* shutdown, RpcType* type_out,
                    uint64_t* trace_id_out) {
    // `requests` increments strictly before `replies` on every path, so any
    // concurrent metrics snapshot observes replies_total ≤ requests_total.
    static util::Counter* const requests =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.requests_total");
    static util::Counter* const replies =
        util::MetricsRegistry::Instance().GetCounter("rpc.serve.replies_total");
    static util::Counter* const cache_hits =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.reply_cache.hits_total");
    static util::Counter* const cache_misses =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.reply_cache.misses_total");
    static util::Counter* const malformed =
        util::MetricsRegistry::Instance().GetCounter(
            "rpc.serve.malformed_requests_total");
    // Server-side structural endorsement: the serving process executes
    // whatever a client asks; clients' own verification is what matters.
    auto req_or = RpcRequest::Deserialize(frame);
    Result<RpcRequest> checked_or =
        req_or.ok() ? CheckRequestEnvelope(std::move(*req_or))
                    : Result<RpcRequest>(req_or.status());
    if (!checked_or.ok()) {
      malformed->Increment();
      return RpcResponse::FromStatus(checked_or.status()).Serialize();
    }
    const RpcRequest& req = *checked_or;
    // Adopt the caller's trace context before opening any span: every span
    // below — handler, mtree verify, WAL append — attaches to the client's
    // trace, with the client's call span as parent.
    util::ScopedTraceContext trace_ctx(req.trace_id, req.span_id);
    TCVS_SPAN("rpc.serve.handle_frame");
    *type_out = req.type;
    *trace_id_out = util::CurrentSpanContext().trace_id;
    requests->Increment();
    ServeMethodRequests(req.type)->Increment();
    // Counter-bearing transactions replay idempotently via the cache;
    // GetParams/LogCheckpoint are naturally idempotent, Shutdown is not a
    // transaction.
    const bool cacheable = req.request_id != 0 &&
                           (req.type == RpcType::kTransact ||
                            req.type == RpcType::kList);
    // Waiting for the execution lock is queue delay, not work: attribute it
    // to the request's cost vector so latency decomposes into
    // queue + work + fsync.
    const uint64_t lock_start_us = util::MonotonicMicros();
    util::MutexLock lock(&mu_);
    const uint64_t lock_wait_us = util::MonotonicMicros() - lock_start_us;
    if (lock_wait_us != 0) {
      if (auto* cost = util::CurrentCostCounters()) {
        cost->queue_us += lock_wait_us;
      }
    }
    if (cacheable) {
      if (const Bytes* hit = reply_cache_.Find(req.request_id)) {
        // Replay of a request we already executed: return the original
        // reply; the operation counter must not advance twice.
        cache_hits->Increment();
        replies->Increment();
        return *hit;
      }
      cache_misses->Increment();
    }
    RpcResponse resp;
    switch (req.type) {
      case RpcType::kGetParams:
        resp.payload = SerializeParams(api_->tree_params());
        break;
      case RpcType::kTransact:
        resp = PassThrough(api_->Transact(req.user, req.ops));
        break;
      case RpcType::kList:
        resp = PassThrough(api_->List(req.user, req.prefix));
        break;
      case RpcType::kLogCheckpoint:
        resp = PassThrough(api_->LogCheckpoint(req.old_size));
        break;
      case RpcType::kShutdown:
        *shutdown = true;
        break;
    }
    Bytes wire = resp.Serialize();
    if (cacheable) reply_cache_.Insert(req.request_id, wire);
    replies->Increment();
    return wire;
  }

 private:
  cvs::ServerApi* const api_ TCVS_PT_GUARDED_BY(mu_);

  // Named: contended waits show up as lock.rpc.serve.*.contention_us
  // histograms and in /lockz (see util/profiler.h).
  util::Mutex mu_{"rpc.serve.execute"};
  ReplyCache reply_cache_ TCVS_GUARDED_BY(mu_);
};

/// Answers one request frame on `conn`; keeps the connection unless the
/// peer left, a fault point severed it, or the frame stopped the loop.
net::ServeLoop::Action ServeFrame(ServeState* state, net::ServeLoop* loop,
                                  net::TcpConnection* conn,
                                  const ServeOptions& options) {
  using Action = net::ServeLoop::Action;
  auto& faults = util::FaultInjector::Instance();
  // A peer that sends part of a frame and goes silent holds this worker
  // for one deadline, not forever.
  conn->set_io_timeout_ms(kServeFrameTimeoutMs);
  auto frame_or = conn->ReceiveFrame();
  if (!frame_or.ok()) return Action::kClose;  // Peer left or stalled.

  if (faults.ShouldFail(kFaultServeCrash)) {
    // Simulated process death: the request was received but nothing
    // executed; the harness restarts the server from durable state.
    loop->Stop(Status::Unavailable("fault injected: " +
                                   std::string(kFaultServeCrash)));
    return Action::kClose;
  }
  if (faults.ShouldFail(kFaultServeDropBefore)) return Action::kClose;

  bool shutdown = false;
  RpcType type = static_cast<RpcType>(0);  // Stays 0 on a malformed frame.
  uint64_t trace_id = 0;
  // Per-request accounting: the cost scope captures every hash, signature
  // verify, VO byte, WAL wait and execution-lock wait (the queue delay) the
  // handler performs on this thread, so `latency = queue + work + fsync`
  // holds exactly; the span collector (armed only when slow-op capture is
  // on) keeps the request's own span subtree for the slow-op record.
  util::CostScope cost_scope;
  std::optional<util::ScopedSpanCollector> collector;
  if (options.slow_op_us > 0) collector.emplace();
  const uint64_t start_us = util::MonotonicMicros();
  Bytes wire = state->HandleFrame(*frame_or, &shutdown, &type, &trace_id);
  const uint64_t elapsed_us = util::MonotonicMicros() - start_us;
  if (type != static_cast<RpcType>(0)) {
    ServeMethodLatency(type)->RecordWithExemplar(elapsed_us, trace_id,
                                                 start_us);
    if (const MethodCostCounters* method_cost = ServeMethodCost(type)) {
      // Everything not attributed to queueing or fsync waits is work.
      const util::CostCounters& cost = cost_scope.counters();
      const uint64_t attributed = cost.queue_us + cost.wal_fsync_wait_us;
      const uint64_t work_us =
          elapsed_us > attributed ? elapsed_us - attributed : 0;
      method_cost->Add(cost, work_us);
    }
    if (options.slow_op_us > 0 && elapsed_us >= options.slow_op_us) {
      static util::Counter* const slow_ops =
          util::MetricsRegistry::Instance().GetCounter(
              "rpc.serve.slow_ops_total");
      slow_ops->Increment();
      util::SlowOpRecord record;
      record.method = RpcMethodName(type);
      record.latency_us = elapsed_us;
      record.trace_id = trace_id;
      record.ts_us = start_us;
      record.cost = cost_scope.counters();
      record.spans = util::TraceDump::FromEvents(collector->Take()).events;
      // JSON-lines on stderr: greppable next to tcvsd's structured log
      // without entangling the RPC layer with the logger.
      const std::string line = record.JsonFormat();
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  if (faults.ShouldFail(kFaultServeDropAfter)) return Action::kClose;
  Status send = conn->SendFrame(wire);
  if (shutdown) {
    // The shutdown reply is already on the wire (best effort); now stop
    // every worker.
    loop->Stop(Status::OK());
    return Action::kClose;
  }
  return send.ok() ? Action::kKeep : Action::kClose;
}

}  // namespace

Status Serve(net::TcpListener* listener, cvs::ServerApi* server,
             ServeOptions options) {
  // Readiness signal for the admin plane: nonzero while the pool serves.
  static util::Gauge* const workers_gauge =
      util::MetricsRegistry::Instance().GetGauge("rpc.serve.workers");
  static util::Gauge* const busy = util::MetricsRegistry::Instance().GetGauge(
      "rpc.serve.busy_workers");

  ServeState state(server);
  net::ServeLoop loop(options.num_threads, options.poll_interval_ms);
  workers_gauge->Set(std::max(1, options.num_threads));
  Status st = loop.Start(listener, [&](net::TcpConnection* conn) {
    busy->Increment();
    const net::ServeLoop::Action action =
        ServeFrame(&state, &loop, conn, options);
    busy->Decrement();
    return action;
  });
  if (st.ok()) st = loop.Join();  // No worker outlives Serve.
  workers_gauge->Set(0);
  return st;
}

}  // namespace rpc
}  // namespace tcvs
