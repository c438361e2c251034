#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/serve_loop.h"
#include "net/socket.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace tcvs {
namespace net {

/// \name Fault points consulted by this layer (see util/fault.h).
/// @{
/// The dispatcher fails the matched handler with Internal — exercises the
/// 500 path without needing a handler that can actually break.
inline constexpr char kFaultAdminHandlerFail[] = "net.admin.handler.fail";
/// @}

/// \file
/// The HTTP observability plane: a minimal, dependency-free HTTP/1.1
/// server that exposes the process's metrics, health, traces, and audit
/// events to standard tooling (Prometheus scrapers, curl, load-balancer
/// health checks). It reuses the net socket layer (poll deadlines, fault
/// injection) and runs on its own net::ServeLoop with a small worker pool,
/// so a slow scraper never blocks the RPC serving path.
///
/// Scope is deliberately tiny: GET only, one request per connection
/// (`Connection: close`), bounded request size, no TLS, loopback bind.
/// This is an ADMIN plane — it trusts its operator, not the network; do
/// not expose it beyond the host boundary.

/// \brief One parsed admin request. Only the request line is interpreted;
/// headers are read (to find the end of the request) and discarded.
struct HttpRequest {
  std::string method;  ///< "GET", uppercased by the parser.
  std::string path;    ///< Absolute path, no query ("/metrics").
  std::string query;   ///< Raw query string after '?' ("" when absent).

  /// Value of `key` in the query string ("" when absent). No %-decoding:
  /// admin parameters are numeric cursors and flags.
  std::string QueryParam(const std::string& key) const;
};

/// \brief What a handler returns; the server renders the status line,
/// Content-Type, Content-Length, and Connection: close around it.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// One registered endpoint. Handlers run on worker threads and must be
/// thread-safe; they should be read-mostly and fast (the pool is small).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// \brief The admin-plane HTTP server. Start() binds and starts the serve
/// loop's workers; Stop() (or the destructor) joins everything.
class HttpAdminServer {
 public:
  struct Options {
    /// Loopback port to bind (0 = ephemeral; see port()).
    uint16_t port = 0;
    /// Workers answering requests. Scrapes are cheap; 2 is plenty for a
    /// scraper plus a human with curl.
    int num_threads = 2;
    /// Bounded-blocking slice of each worker's readiness wait — the latency
    /// bound on noticing Stop(), not a client-visible deadline.
    int poll_interval_ms = 50;
    /// Whole-call deadline for reading a request / writing a response.
    /// Bounds how long a stalled scraper can pin a worker.
    int io_timeout_ms = 2000;
    /// Requests larger than this are rejected with 431. Admin requests
    /// are one line plus a few headers.
    size_t max_request_bytes = 8192;
  };

  /// Binds 127.0.0.1:`options.port` and starts serving. The returned
  /// server owns its threads; destroy it (or call Stop) to shut down.
  static Result<std::unique_ptr<HttpAdminServer>> Start(Options options);

  ~HttpAdminServer();

  HttpAdminServer(const HttpAdminServer&) = delete;
  HttpAdminServer& operator=(const HttpAdminServer&) = delete;

  /// Registers `handler` for exact-match `path` (e.g. "/metrics"),
  /// replacing any previous handler. Safe while serving.
  void Handle(const std::string& path, HttpHandler handler)
      TCVS_EXCLUDES(mu_);

  /// Registered paths, sorted (powers the index page and the lint rule's
  /// runtime counterpart in tests).
  std::vector<std::string> paths() const TCVS_EXCLUDES(mu_);

  /// The bound port (useful with Options::port = 0).
  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, drains workers, joins all threads. Idempotent.
  void Stop();

 private:
  explicit HttpAdminServer(Options options)
      : options_(options),
        loop_(options.num_threads, options.poll_interval_ms) {}

  /// Reads one request, dispatches, writes the response.
  void ServeConnection(TcpConnection* conn);
  HttpResponse Dispatch(const HttpRequest& request) TCVS_EXCLUDES(mu_);

  Options options_;
  TcpListener listener_;

  mutable util::Mutex mu_;
  std::map<std::string, HttpHandler> handlers_ TCVS_GUARDED_BY(mu_);

  ServeLoop loop_;
};

/// \brief A named readiness probe for /readyz. `check` returns OK when the
/// subsystem can serve; any other status flips readiness to 503 and the
/// status message is reported in the body.
struct HealthCheck {
  std::string name;
  std::function<Status()> check;
};

/// \brief Configuration for RegisterStandardEndpoints — the process facts
/// the standard endpoints report but cannot discover themselves.
struct AdminEndpointOptions {
  /// Readiness probes, evaluated in order on every /readyz hit.
  std::vector<HealthCheck> readiness;
  /// One-line human-readable config summary for /statusz (flag values).
  std::string config_summary;
  /// Process start, MonotonicMicros() at startup (uptime in /statusz).
  uint64_t start_us = 0;
  /// Build identification line for /statusz.
  std::string build_info;
};

/// Registers the standard observability endpoints on `server`:
///
///   /metrics  Prometheus text exposition with OpenMetrics exemplars
///   /varz     full metrics snapshot as JSON
///   /healthz  liveness: 200 "ok" while the process can answer at all
///   /readyz   readiness: 200 only when every HealthCheck passes
///   /statusz  build info, uptime, config, every gauge (JSON)
///   /tracez   drains the trace ring as Chrome trace-event JSON
///   /eventsz  audit log as JSON lines; ?since=SEQ for incremental reads
///
/// plus "/" as a plain-text index of registered paths. Every endpoint
/// bumps its `http.admin.<name>.requests_total` counter (lint-enforced
/// against the ARCHITECTURE.md endpoint table).
void RegisterStandardEndpoints(HttpAdminServer* server,
                               AdminEndpointOptions options);

/// \brief Minimal blocking HTTP GET against a local admin server — the
/// client half used by tests and `tcvs top`. Returns the parsed status
/// line and body (headers are consumed and discarded).
Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& path_and_query,
                             int timeout_ms = 2000);

}  // namespace net
}  // namespace tcvs
