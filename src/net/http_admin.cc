#include "net/http_admin.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/audit.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace tcvs {
namespace net {

namespace {

/// Response bodies a test client may legitimately fetch (a full trace ring
/// renders to a few MiB of JSON); HttpGet refuses anything larger.
constexpr size_t kMaxResponseBytes = TcpConnection::kMaxFrame;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string RenderResponse(const HttpResponse& response) {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                response.status, ReasonPhrase(response.status),
                response.content_type.c_str(), response.body.size());
  return std::string(header) + response.body;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Parses the request head (everything before the blank line). Returns
/// false on a malformed request line.
bool ParseRequestHead(const std::string& head, HttpRequest* request) {
  const size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request->method = line.substr(0, sp1);
  std::transform(request->method.begin(), request->method.end(),
                 request->method.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    request->path = std::move(target);
    request->query.clear();
  } else {
    request->path = target.substr(0, qmark);
    request->query = target.substr(qmark + 1);
  }
  return true;
}

}  // namespace

std::string HttpRequest::QueryParam(const std::string& key) const {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::string();
}

Result<std::unique_ptr<HttpAdminServer>> HttpAdminServer::Start(
    Options options) {
  options.num_threads = std::max(1, std::min(options.num_threads, 16));
  TCVS_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Bind(options.port));
  std::unique_ptr<HttpAdminServer> server(new HttpAdminServer(options));
  server->listener_ = std::move(listener);
  TCVS_RETURN_NOT_OK(server->loop_.Start(
      &server->listener_, [raw = server.get()](TcpConnection* conn) {
        raw->ServeConnection(conn);
        return ServeLoop::Action::kClose;  // One request per connection.
      }));
  util::MetricsRegistry::Instance()
      .GetGauge("net.admin.workers")
      ->Set(options.num_threads);
  return server;
}

HttpAdminServer::~HttpAdminServer() { Stop(); }

void HttpAdminServer::Stop() {
  loop_.Stop(Status::OK());
  (void)loop_.Join();
  listener_.Close();
  util::MetricsRegistry::Instance().GetGauge("net.admin.workers")->Set(0);
}

void HttpAdminServer::Handle(const std::string& path, HttpHandler handler) {
  util::MutexLock lock(&mu_);
  handlers_[path] = std::move(handler);
}

std::vector<std::string> HttpAdminServer::paths() const {
  util::MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [path, handler] : handlers_) out.push_back(path);
  return out;
}

void HttpAdminServer::ServeConnection(TcpConnection* conn) {
  conn->set_io_timeout_ms(options_.io_timeout_ms);
  std::string head;
  HttpResponse response;
  bool parsed = false;
  uint8_t buf[1024];
  for (;;) {
    if (head.size() >= options_.max_request_bytes) {
      response.status = 431;
      response.body = "request too large\n";
      break;
    }
    Result<size_t> n = conn->ReadSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) return;  // Peer gone or stalled: no reply.
    head.append(reinterpret_cast<const char*>(buf), *n);
    if (head.find("\r\n\r\n") != std::string::npos) {
      parsed = true;
      break;
    }
  }
  if (parsed) {
    HttpRequest request;
    if (!ParseRequestHead(head, &request)) {
      response.status = 400;
      response.body = "bad request\n";
    } else {
      response = Dispatch(request);
    }
  }
  const std::string wire = RenderResponse(response);
  (void)conn->WriteRaw(reinterpret_cast<const uint8_t*>(wire.data()),
                       wire.size());
}

HttpResponse HttpAdminServer::Dispatch(const HttpRequest& request) {
  auto& metrics = util::MetricsRegistry::Instance();
  metrics.GetCounter("net.admin.requests_total")->Increment();
  TCVS_SPAN("net.admin.handle");
  HttpResponse response;
  if (request.method != "GET") {
    response.status = 405;
    response.body = "admin plane is GET-only\n";
    return response;
  }
  HttpHandler handler;
  {
    util::MutexLock lock(&mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    metrics.GetCounter("net.admin.not_found_total")->Increment();
    response.status = 404;
    response.body = "no handler for " + request.path + "\n";
    return response;
  }
  if (util::FaultInjector::Instance().ShouldFail(kFaultAdminHandlerFail)) {
    response.status = 500;
    response.body = "injected handler failure\n";
    return response;
  }
  return handler(request);
}

void RegisterStandardEndpoints(HttpAdminServer* server,
                               AdminEndpointOptions options) {
  auto& metrics = util::MetricsRegistry::Instance();

  server->Handle("/metrics", [&metrics](const HttpRequest&) {
    metrics.GetCounter("http.admin.metrics.requests_total")->Increment();
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics.TextFormat();
    return r;
  });

  server->Handle("/varz", [&metrics](const HttpRequest&) {
    metrics.GetCounter("http.admin.varz.requests_total")->Increment();
    HttpResponse r;
    r.content_type = "application/json";
    r.body = metrics.Snapshot().JsonFormat();
    r.body.push_back('\n');
    return r;
  });

  server->Handle("/healthz", [&metrics](const HttpRequest&) {
    metrics.GetCounter("http.admin.healthz.requests_total")->Increment();
    // Liveness: answering at all is the signal. Readiness is /readyz.
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });

  server->Handle(
      "/readyz", [&metrics, checks = options.readiness](const HttpRequest&) {
        metrics.GetCounter("http.admin.readyz.requests_total")->Increment();
        HttpResponse r;
        std::string failures;
        for (const HealthCheck& check : checks) {
          Status st = check.check();
          if (!st.ok()) {
            failures += check.name + ": " + st.ToString() + "\n";
          }
        }
        if (failures.empty()) {
          r.body = "ready\n";
        } else {
          r.status = 503;
          r.body = "not ready\n" + failures;
        }
        return r;
      });

  server->Handle(
      "/statusz",
      [&metrics, server, config = options.config_summary,
       build = options.build_info, start_us = options.start_us](
          const HttpRequest&) {
        metrics.GetCounter("http.admin.statusz.requests_total")->Increment();
        HttpResponse r;
        r.content_type = "application/json";
        const uint64_t now_us = util::MonotonicMicros();
        std::string& out = r.body;
        out.append("{\"build\":\"");
        AppendJsonEscaped(&out, build);
        out.append("\",\"config\":\"");
        AppendJsonEscaped(&out, config);
        char buf[96];
        std::snprintf(buf, sizeof(buf), "\",\"uptime_us\":%" PRIu64,
                      now_us >= start_us ? now_us - start_us : 0);
        out.append(buf);
        out.append(",\"endpoints\":[");
        bool first = true;
        for (const std::string& path : server->paths()) {
          if (!first) out.push_back(',');
          first = false;
          out.push_back('"');
          AppendJsonEscaped(&out, path);
          out.push_back('"');
        }
        out.append("],\"gauges\":{");
        first = true;
        for (const auto& [name, value] : metrics.Snapshot().gauges) {
          if (!first) out.push_back(',');
          first = false;
          out.push_back('"');
          AppendJsonEscaped(&out, name);
          std::snprintf(buf, sizeof(buf), "\":%lld",
                        static_cast<long long>(value));
          out.append(buf);
        }
        out.append("}}\n");
        return r;
      });

  server->Handle("/tracez", [&metrics](const HttpRequest&) {
    metrics.GetCounter("http.admin.tracez.requests_total")->Increment();
    HttpResponse r;
    r.content_type = "application/json";
    r.body = util::TraceDump::FromEvents(metrics.DrainTrace())
                 .ChromeTraceJson();
    r.body.push_back('\n');
    return r;
  });

  server->Handle("/eventsz", [&metrics](const HttpRequest& request) {
    metrics.GetCounter("http.admin.eventsz.requests_total")->Increment();
    HttpResponse r;
    r.content_type = "application/x-ndjson";
    const std::string since = request.QueryParam("since");
    const uint64_t min_seq =
        since.empty() ? 0 : std::strtoull(since.c_str(), nullptr, 10);
    for (const util::AuditEvent& event :
         util::AuditLog::Instance().SnapshotSince(min_seq)) {
      r.body += event.JsonFormat();
      r.body.push_back('\n');
    }
    return r;
  });

  server->Handle("/pprofz", [&metrics](const HttpRequest& request) {
    metrics.GetCounter("http.admin.pprofz.requests_total")->Increment();
    HttpResponse r;
    const std::string seconds_s = request.QueryParam("seconds");
    const std::string hz_s = request.QueryParam("hz");
    const int seconds =
        seconds_s.empty() ? 5 : static_cast<int>(std::strtol(seconds_s.c_str(),
                                                             nullptr, 10));
    const int hz = hz_s.empty() ? 100
                                : static_cast<int>(std::strtol(hz_s.c_str(),
                                                               nullptr, 10));
    const std::string fmt = request.QueryParam("fmt");
    if (!fmt.empty() && fmt != "folded" && fmt != "json") {
      r.status = 400;
      r.body = "fmt must be 'folded' or 'json'\n";
      return r;
    }
    // Blocks this admin worker for the window; the serving plane and the
    // other admin worker are unaffected. ProfileWindow clamps hz/seconds.
    Result<util::CpuProfile> profile = util::ProfileWindow(hz, seconds);
    if (!profile.ok()) {
      r.status = 503;
      r.body = profile.status().ToString() + "\n";
      return r;
    }
    if (fmt == "json") {
      r.content_type = "application/json";
      r.body = profile->JsonTopN(50);
    } else {
      r.content_type = "text/plain; charset=utf-8";
      r.body = profile->FoldedFormat();
    }
    return r;
  });

  server->Handle("/lockz", [&metrics](const HttpRequest&) {
    metrics.GetCounter("http.admin.lockz.requests_total")->Increment();
    HttpResponse r;
    r.content_type = "application/json";
    r.body = util::ContentionJson();
    r.body.push_back('\n');
    return r;
  });

  server->Handle("/", [server](const HttpRequest&) {
    HttpResponse r;
    r.body = "tcvsd admin plane\n";
    for (const std::string& path : server->paths()) {
      r.body += path + "\n";
    }
    return r;
  });
}

Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& path_and_query,
                             int timeout_ms) {
  TCVS_ASSIGN_OR_RETURN(TcpConnection conn,
                        TcpConnection::Connect(host, port, timeout_ms));
  conn.set_io_timeout_ms(timeout_ms);
  std::string request = "GET " + path_and_query +
                        " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  TCVS_RETURN_NOT_OK(conn.WriteRaw(
      reinterpret_cast<const uint8_t*>(request.data()), request.size()));
  std::string raw;
  uint8_t buf[4096];
  for (;;) {
    TCVS_ASSIGN_OR_RETURN(size_t n, conn.ReadSome(buf, sizeof(buf)));
    if (n == 0) break;  // Connection: close delimits the body.
    raw.append(reinterpret_cast<const char*>(buf), n);
    if (raw.size() > kMaxResponseBytes) {
      return Status::IOError("http: response too large");
    }
  }
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IOError("http: truncated response (no header terminator)");
  }
  const std::string head = raw.substr(0, head_end);
  HttpResponse response;
  // Status line: "HTTP/1.1 200 OK".
  const size_t sp = head.find(' ');
  if (sp == std::string::npos ||
      head.compare(0, 5, "HTTP/") != 0) {
    return Status::IOError("http: malformed status line");
  }
  response.status = std::atoi(head.c_str() + sp + 1);
  if (response.status < 100 || response.status > 599) {
    return Status::IOError("http: malformed status code");
  }
  response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace net
}  // namespace tcvs
