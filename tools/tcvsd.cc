// tcvsd — the untrusted trusted-cvs repository server.
//
// Hosts a CVS repository over the authenticated Merkle B⁺-tree and answers
// framed RPC requests from `tcvs` clients. The daemon is the UNTRUSTED
// party: everything it returns is verified client-side, and clients'
// periodic sync-ups catch forks/replays this process could mount.
//
// Usage:
//   tcvsd [--port N] [--fanout F] [--data-dir DIR] [--no-fsync]
//         [--group-commit-window-us US] [--threads N]
//         [--log-json] [--log-json-interval-ms MS]
//         [--trace] [--trace-capacity N]
//         [--admin-port N] [--slow-op-us US]
//         [--profile-hz HZ] [--no-contention-profile]
//
// --fanout F (at least 2, default 8) caps both the entries of a leaf and
// the separators of an internal node; clients replay splits with it.
// Every numeric flag must be a decimal number in range: anything else is a
// usage error (exit 2), never wrapped or zeroed.
//
// --threads sizes the serve loop's worker pool: N requests are answered
// concurrently (I/O in parallel, transaction execution serialized under the
// serve lock — see ARCHITECTURE.md "Concurrency model"), however many
// clients are connected. Defaults to the hardware concurrency, but never
// below 2.
//
// With --data-dir, the repository is durable: a write-ahead log captures
// every transaction before it executes, and a snapshot is folded in on
// clean shutdown and whenever the log passes 256 MiB while serving
// (storage::kWalCheckpointBytes), so a restarted daemon resumes with the
// identical root digest — clients verifying against their registers never
// notice. WAL appends
// fdatasync by default so acknowledged transactions survive power loss;
// --no-fsync trades that for page-cache-speed appends.
//
// --group-commit-window-us arms WAL group commit: the flush leader waits up
// to US microseconds for concurrent commits to stage before issuing one
// write+fsync covering the whole batch (see ARCHITECTURE.md "Hot paths &
// batching"). Durability is unchanged — every acknowledged commit was
// fsynced; the window only trades a bounded latency bump for fewer device
// syncs. With the default of 0 concurrent clients' commits still batch:
// their records stage while the leader's fdatasync runs and share the next
// one. Meaningless without --data-dir, and pointless with --no-fsync:
// when nothing syncs there is nothing to amortize (the window is ignored
// on the no-fsync path rather than adding latency for nothing).
//
// The TCVS_FAULTS environment variable arms fault-injection points in the
// daemon (see util/fault.h), e.g. TCVS_FAULTS="rpc.serve.crash=nth:3" —
// the harness for resilience tests against a real process.
//
// --log-json emits one JSON-lines metrics snapshot per interval (default
// 1000 ms) to stderr, plus a final line on shutdown — structured logging a
// collector can tail without scraping. Security audit events (signature
// failures, counter regressions, fork evidence — see util/audit.h) are
// appended as their own {"ts_ms":...,"audit_event":{...}} lines, each
// exactly once.
//
// --trace turns on span recording into the bounded in-process ring
// (/tracez and `tcvs trace` drain it as Chrome trace-event JSON);
// --trace-capacity N sizes the ring and implies --trace. Trace-context propagation across RPC
// is always on regardless — it costs three integers per request.
//
// --admin-port N starts the HTTP observability plane on loopback port N
// (0 = ephemeral; the bound port is printed): /metrics, /varz, /healthz,
// /readyz, /statusz, /tracez, /eventsz, /pprofz, /lockz — see
// ARCHITECTURE.md "Observability plane". It is the only way to read
// observability data out of the daemon: `tcvs --admin HOST:PORT
// stats|trace|events|profile|top` are its clients. /readyz goes 503 while
// the WAL cannot take writes, the worker pool is down, or fork evidence
// has been recorded.
//
// --slow-op-us US arms slow-op capture: any served RPC taking longer than
// US microseconds emits a JSON-lines record on stderr with its method,
// latency, trace id, span subtree, and per-request cost counters (hashes,
// bytes hashed, signature verifies, VO bytes, WAL appends/fsync waits,
// queue delay).
//
// --profile-hz HZ arms the always-on sampling CPU profiler at HZ samples
// per second of process CPU time (SIGPROF; see ARCHITECTURE.md "Profiling
// plane"). /pprofz windows (`tcvs profile`) then ride the running
// profiler instead of starting their own. Overhead budget: <= 3% at 100 Hz
// (bench_profiler_overhead pins it).
//
// Lock-contention accounting (per-callsite wait sites in /lockz plus
// lock.<name>.contention_us histograms) is on by default and costs one
// uncontended try_lock on the fast path; --no-contention-profile turns it
// off.
//
// Prints the bound port on stdout (useful with --port 0 for an ephemeral
// port) and serves until a shutdown RPC arrives.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "cvs/trusted.h"
#include "net/http_admin.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "storage/durable.h"
#include "util/audit.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/profiler.h"

using namespace tcvs;

namespace {

long long WallClockMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Emits one JSON-lines metrics snapshot to stderr.
void EmitJsonMetrics() {
  std::string metrics =
      util::MetricsRegistry::Instance().Snapshot().JsonFormat();
  std::fprintf(stderr, "{\"ts_ms\":%lld,\"metrics\":%s}\n", WallClockMs(),
               metrics.c_str());
}

/// Emits every audit event past `last_seq` as its own JSON line and
/// returns the highest seq emitted, so each event is logged exactly once.
uint64_t EmitJsonAuditEvents(uint64_t last_seq) {
  for (const util::AuditEvent& e :
       util::AuditLog::Instance().SnapshotSince(last_seq)) {
    std::fprintf(stderr, "{\"ts_ms\":%lld,\"audit_event\":%s}\n", WallClockMs(),
                 e.JsonFormat().c_str());
    last_seq = e.seq;
  }
  return last_seq;
}

/// Background JSON-lines metrics logger (--log-json): one snapshot per
/// interval while serving, one final snapshot when stopped.
class JsonLogger {
 public:
  explicit JsonLogger(int interval_ms) : interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Run(); });
  }
  ~JsonLogger() { Stop(); }

  void Stop() {
    {
      util::MutexLock lock(&mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.SignalAll();
    thread_.join();
    // Final state, after the serve loop drained.
    EmitJsonMetrics();
    last_audit_seq_ = EmitJsonAuditEvents(last_audit_seq_);
  }

 private:
  void Run() {
    util::MutexLock lock(&mu_);
    while (!stopped_) {
      cv_.WaitFor(&mu_, interval_ms_);
      if (stopped_) break;
      EmitJsonMetrics();
      last_audit_seq_ = EmitJsonAuditEvents(last_audit_seq_);
    }
  }

  const int interval_ms_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool stopped_ TCVS_GUARDED_BY(mu_) = false;
  // Touched only by the logger thread, then by Stop() after join(): the
  // join is the synchronization point, so no lock is needed.
  uint64_t last_audit_seq_ = 0;
  std::thread thread_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: tcvsd [--port N] [--fanout F] [--data-dir DIR] "
               "[--no-fsync] [--group-commit-window-us US] [--threads N] "
               "[--log-json] [--log-json-interval-ms MS] [--trace] "
               "[--trace-capacity N] [--admin-port N] [--slow-op-us US] "
               "[--profile-hz HZ] [--no-contention-profile]\n");
  return 2;
}

/// Parses a numeric flag value into `*out`; false (a usage error) unless it
/// is a decimal number that fits T — never wrapped or truncated.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  auto parsed = net::ParseUint(
      text, static_cast<uint64_t>(std::numeric_limits<T>::max()));
  if (!parsed.ok()) return false;
  *out = static_cast<T>(*parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7199;
  size_t fanout = 8;
  std::string data_dir;
  bool fsync = true;
  uint32_t group_commit_window_us = 0;
  bool log_json = false;
  int log_json_interval_ms = 1000;
  bool trace = false;
  uint64_t trace_capacity = 0;
  int admin_port = -1;  // -1 = admin plane off.
  int profile_hz = 0;   // 0 = always-on profiler off (windows still work).
  bool contention_profile = true;
  rpc::ServeOptions serve_options;
  const uint64_t start_us = util::MonotonicMicros();
  // Size the worker pool to the machine, but never below 2: a peer stalled
  // mid-frame holds a worker for up to rpc::kServeFrameTimeoutMs (and
  // hardware_concurrency() can legally return 0).
  const unsigned hw = std::thread::hardware_concurrency();
  serve_options.num_threads = static_cast<int>(hw > 2 ? hw : 2);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      auto parsed = net::ParsePort(argv[++i]);
      if (!parsed.ok()) return Usage();
      port = *parsed;
    } else if (std::strcmp(argv[i], "--fanout") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &fanout)) return Usage();
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &serve_options.num_threads)) return Usage();
    } else if (std::strcmp(argv[i], "--no-fsync") == 0) {
      fsync = false;
    } else if (std::strcmp(argv[i], "--fsync") == 0) {
      fsync = true;
    } else if (std::strcmp(argv[i], "--group-commit-window-us") == 0 &&
               i + 1 < argc) {
      if (!ParseNumber(argv[++i], &group_commit_window_us)) return Usage();
    } else if (std::strcmp(argv[i], "--log-json") == 0) {
      log_json = true;
    } else if (std::strcmp(argv[i], "--log-json-interval-ms") == 0 &&
               i + 1 < argc) {
      log_json = true;
      if (!ParseNumber(argv[++i], &log_json_interval_ms)) return Usage();
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--trace-capacity") == 0 && i + 1 < argc) {
      trace = true;  // Asking for a buffer size implies wanting the buffer.
      if (!ParseNumber(argv[++i], &trace_capacity)) return Usage();
    } else if (std::strcmp(argv[i], "--admin-port") == 0 && i + 1 < argc) {
      auto parsed = net::ParsePort(argv[++i]);
      if (!parsed.ok()) return Usage();
      admin_port = *parsed;
    } else if (std::strcmp(argv[i], "--slow-op-us") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &serve_options.slow_op_us)) return Usage();
    } else if (std::strcmp(argv[i], "--profile-hz") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &profile_hz)) return Usage();
    } else if (std::strcmp(argv[i], "--contention-profile") == 0) {
      contention_profile = true;
    } else if (std::strcmp(argv[i], "--no-contention-profile") == 0) {
      contention_profile = false;
    } else {
      return Usage();
    }
  }
  if (serve_options.num_threads < 1) {
    std::fprintf(stderr, "tcvsd: --threads must be >= 1\n");
    return 2;
  }
  const mtree::TreeParams params{fanout, fanout};
  if (Status st = mtree::ValidateTreeParams(params); !st.ok()) {
    std::fprintf(stderr, "tcvsd: --fanout: %s\n", st.ToString().c_str());
    return 2;
  }

  // Span recording is opt-in; context propagation itself is always on.
  if (trace) {
    util::MetricsRegistry::Instance().set_trace_enabled(true);
    if (trace_capacity != 0) {
      util::MetricsRegistry::Instance().set_trace_capacity(
          static_cast<size_t>(trace_capacity));
    }
  }

  // The profiling plane: contention accounting default-on, the sampling
  // CPU profiler only when asked (it owns SIGPROF + ITIMER_PROF).
  util::SetContentionProfilingEnabled(contention_profile);
  if (profile_hz != 0) {
    if (Status st = util::StartCpuProfiler(profile_hz); !st.ok()) {
      std::fprintf(stderr, "tcvsd: --profile-hz: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }

  // Cross-process fault injection for resilience tests (no-op when unset).
  if (Status st = util::FaultInjector::Instance().ArmFromEnv(); !st.ok()) {
    std::fprintf(stderr, "tcvsd: bad TCVS_FAULTS: %s\n",
                 st.ToString().c_str());
    return 2;
  }

  std::unique_ptr<cvs::UntrustedServer> memory_server;
  std::unique_ptr<cvs::SerializedServer> serialized_server;
  std::unique_ptr<storage::DurableServer> durable_server;
  cvs::ServerApi* api = nullptr;
  if (data_dir.empty()) {
    // The in-memory server is single-threaded; the serve workers share it
    // through one lock.
    memory_server = std::make_unique<cvs::UntrustedServer>(params);
    serialized_server =
        std::make_unique<cvs::SerializedServer>(memory_server.get());
    api = serialized_server.get();
  } else {
    storage::DurableOptions durable_options;
    durable_options.fsync = fsync;
    durable_options.group_commit_window_us = group_commit_window_us;
    auto opened =
        storage::DurableServer::Open(data_dir, params, durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "tcvsd: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    durable_server = std::move(opened).ValueOrDie();
    api = durable_server.get();
    std::printf("tcvsd: recovered %llu transactions from %s\n",
                static_cast<unsigned long long>(
                    durable_server->server()->ctr()),
                data_dir.c_str());
  }

  auto listener = net::TcpListener::Bind(port);
  if (!listener.ok()) {
    std::fprintf(stderr, "tcvsd: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  std::printf("tcvsd listening on 127.0.0.1:%u\n", listener->port());
  std::fflush(stdout);

  // The HTTP observability plane (--admin-port). Readiness is the AND of:
  // the serve worker pool being up, the WAL (durable mode) taking writes,
  // and no fork evidence in the audit log — a forked server must stop
  // looking healthy to load balancers even though it still answers RPCs.
  std::unique_ptr<net::HttpAdminServer> admin_server;
  if (admin_port >= 0) {
    net::HttpAdminServer::Options admin_options;
    admin_options.port = static_cast<uint16_t>(admin_port);
    auto admin_or = net::HttpAdminServer::Start(admin_options);
    if (!admin_or.ok()) {
      std::fprintf(stderr, "tcvsd: admin plane: %s\n",
                   admin_or.status().ToString().c_str());
      return 1;
    }
    admin_server = std::move(admin_or).ValueOrDie();

    net::AdminEndpointOptions endpoints;
    endpoints.start_us = start_us;
    endpoints.build_info = "tcvsd (" __DATE__ ")";
    char config[256];
    std::snprintf(config, sizeof(config),
                  "port=%u fanout=%zu data_dir=%s fsync=%d "
                  "group_commit_window_us=%u threads=%d slow_op_us=%llu "
                  "profile_hz=%d contention_profile=%d",
                  listener->port(), fanout,
                  data_dir.empty() ? "(memory)" : data_dir.c_str(),
                  fsync ? 1 : 0, group_commit_window_us,
                  serve_options.num_threads,
                  static_cast<unsigned long long>(serve_options.slow_op_us),
                  profile_hz, contention_profile ? 1 : 0);
    endpoints.config_summary = config;
    endpoints.readiness.push_back(net::HealthCheck{
        "serve.workers", [] {
          if (util::MetricsRegistry::Instance()
                  .GetGauge("rpc.serve.workers")
                  ->value() >= 1) {
            return Status::OK();
          }
          return Status::Unavailable("worker pool not running");
        }});
    endpoints.readiness.push_back(net::HealthCheck{
        "fork.evidence", [] {
          const uint64_t forks = util::MetricsRegistry::Instance()
                                     .GetCounter("audit.forks_detected_total")
                                     ->value();
          if (forks == 0) return Status::OK();
          return Status::VerificationFailure(
              "fork evidence recorded (see /eventsz)");
        }});
    if (durable_server != nullptr) {
      storage::DurableServer* durable = durable_server.get();
      endpoints.readiness.push_back(net::HealthCheck{
          "wal", [durable] {
            if (durable->wal_ok()) return Status::OK();
            return Status::IOError("WAL not accepting writes");
          }});
    }
    net::RegisterStandardEndpoints(admin_server.get(), std::move(endpoints));
    std::printf("tcvsd admin listening on 127.0.0.1:%u\n",
                admin_server->port());
    std::fflush(stdout);
  }

  std::unique_ptr<JsonLogger> json_logger;
  if (log_json) {
    if (log_json_interval_ms < 1) log_json_interval_ms = 1;
    json_logger = std::make_unique<JsonLogger>(log_json_interval_ms);
  }

  Status st = rpc::Serve(&listener.ValueOrDie(), api, serve_options);
  if (admin_server != nullptr) admin_server->Stop();
  if (json_logger != nullptr) json_logger->Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "tcvsd: %s\n", st.ToString().c_str());
    return 1;
  }
  if (durable_server != nullptr) {
    Status cp = durable_server->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "tcvsd: checkpoint failed: %s\n",
                   cp.ToString().c_str());
      return 1;
    }
  }
  uint64_t served = durable_server != nullptr
                        ? durable_server->server()->ctr()
                        : memory_server->ctr();
  std::printf("tcvsd: shut down cleanly (%llu transactions total)\n",
              static_cast<unsigned long long>(served));
  return 0;
}
