// tcvs — the verifying trusted-cvs command-line client.
//
// Talks to a `tcvsd` server, verifying every reply (Merkle proofs, local
// replay, counter monotonicity) and folding it into the user's 32-byte
// Protocol II registers, persisted in a state file between invocations
// (each write is an atomic, fsynced replace: storage::AtomicWriteFile).
//
// Usage:
//   tcvs --server HOST:PORT --user N --state FILE checkout PATH
//   tcvs --server HOST:PORT --user N --state FILE cat PATH
//   tcvs --server HOST:PORT --user N --state FILE commit PATH BASE_REV CONTENT
//   tcvs --server HOST:PORT --user N --state FILE remove PATH
//   tcvs --server HOST:PORT --user N --state FILE ls [PREFIX]
//   tcvs --server HOST:PORT --user N --state FILE audit   # append-only history
//   tcvs --state FILE state                # print the registers
//   tcvs check STATE_FILE...               # offline sync-up over state files
//   tcvs --server HOST:PORT shutdown
//   tcvs --admin HOST:PORT stats     # live server metrics (Prometheus text)
//   tcvs --admin HOST:PORT trace     # drain server spans (Chrome trace JSON)
//   tcvs --admin HOST:PORT events [--json]   # security audit-event log
//   tcvs --admin HOST:PORT top [--interval-ms MS] [--frames N]
//   tcvs --admin HOST:PORT profile [--seconds N] [--hz N]
//
// The observability verbs are clients of tcvsd's HTTP admin plane
// (`tcvsd --admin-port N`): stats reads /metrics, trace drains /tracez,
// events reads /eventsz, profile reads /pprofz?fmt=folded, and top diffs
// /varz. They never touch the RPC port, so they work while the serve pool
// is saturated and never wait on the serve loop's execution lock.
//
// `top` diffs two /varz snapshots an interval apart and prints per-RPC-
// method QPS, interval latency quantiles (from the histograms' buckets),
// the queue/work/fsync latency decomposition (QUEUE/OP + WORK/OP +
// FSYNC/OP ≈ the latency mean), and cost-per-op (hashes, signature
// verifies, VO bytes, WAL appends).
//
// `profile` collects a CPU profile window on the SERVER (sampling profiler,
// SIGPROF) and prints folded/collapsed stacks to stdout — pipe through
// flamegraph.pl. Blocks for the window.
//
// Transport flags: --retries N, --backoff-ms MS, --timeout-ms MS tune the
// retry policy (exponential backoff, jittered) and per-operation deadlines.
// Transport faults are retried with transparent reconnection; verification
// failures never are.
//
// When the server stays unreachable past the retry budget, read commands
// (cat / checkout / ls) degrade to serving the last *verified* records from
// the local cache file (STATE.cache) instead of aborting — read-only,
// possibly stale, never unverified. Mutations fail with Unavailable.
//
// Exit codes: 0 success, 1 operation error, 2 usage (including a port that
// is not a number in 0..65535 and any other numeric argument that is not a
// decimal number in its type's range), 3 SERVER DEVIATION DETECTED.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cvs/cache.h"
#include "cvs/trusted.h"
#include "net/http_admin.h"
#include "rpc/remote.h"
#include "storage/wal.h"
#include "util/bytes.h"
#include "util/jsonish.h"
#include "util/metrics.h"
#include "util/profiler.h"

using namespace tcvs;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "tcvs: %s\n", status.ToString().c_str());
  return status.IsDeviationDetected() || status.IsVerificationFailure() ? 3 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tcvs [--retries N] [--backoff-ms MS] [--timeout-ms MS] "
               "--server H:P --user N --state FILE "
               "checkout|cat|commit|remove|ls|audit ... | state | "
               "check FILES... | shutdown\n"
               "       tcvs --admin H:P stats | trace | events [--json] | "
               "top [--interval-ms MS] [--frames N] | "
               "profile [--seconds N] [--hz N]\n");
  return 2;
}

/// Parses a numeric argument into `*out`; false (a usage error) unless it
/// is a decimal number that fits T — never wrapped or truncated.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  auto parsed = net::ParseUint(
      text, static_cast<uint64_t>(std::numeric_limits<T>::max()));
  if (!parsed.ok()) return false;
  *out = static_cast<T>(*parsed);
  return true;
}

/// Splits "HOST:PORT"; false when the colon is missing or the port is not
/// a number in 0..65535.
bool ParseHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos) return false;
  auto parsed = net::ParsePort(addr.substr(colon + 1));
  if (!parsed.ok()) return false;
  *host = addr.substr(0, colon);
  *port = *parsed;
  return true;
}

std::string CachePath(const std::string& state_file) {
  return state_file + ".cache";
}

cvs::LocalCache LoadCache(const std::string& state_file) {
  auto data = storage::ReadFileBytes(CachePath(state_file));
  if (!data.ok()) return {};
  auto cache = cvs::LocalCache::Deserialize(*data);
  if (!cache.ok()) return {};  // Corrupt cache: start over; it is only a cache.
  return std::move(cache).ValueOrDie();
}

/// Serves a read command from the verified local cache after the server
/// proved unreachable. Strictly read-only; output is marked as degraded.
int ServeDegraded(const std::string& cmd, const std::vector<std::string>& args,
                  const std::string& state_file, const Status& why) {
  if (state_file.empty()) return Fail(why);
  cvs::LocalCache cache = LoadCache(state_file);
  std::fprintf(stderr,
               "tcvs: %s\ntcvs: DEGRADED read-only mode: serving last "
               "verified records from %s\n",
               why.ToString().c_str(), CachePath(state_file).c_str());
  if (cmd == "cat" || cmd == "checkout") {
    if (args.size() != 2) return Usage();
    const cvs::FileRecord* rec = cache.Find(args[1]);
    if (rec == nullptr) {
      return Fail(Status::Unavailable("server unreachable and " + args[1] +
                                      " is not in the local verified cache"));
    }
    if (cmd == "cat") {
      std::fwrite(rec->content.data(), 1, rec->content.size(), stdout);
    } else {
      std::printf("%s revision %llu (%zu bytes) [degraded: verified cache]\n",
                  args[1].c_str(), (unsigned long long)rec->revision,
                  rec->content.size());
    }
    return 0;
  }
  if (cmd == "ls") {
    std::string prefix = args.size() > 1 ? args[1] : "";
    auto listing = cache.List(prefix);
    for (const auto& [path, revision] : listing) {
      std::printf("%-50s r%llu\n", path.c_str(), (unsigned long long)revision);
    }
    std::printf("%zu files [degraded: verified cache, completeness not "
                "guaranteed]\n",
                listing.size());
    return 0;
  }
  // Mutations (and audit) need the live server: degrading them would turn
  // read-only mode into a silent write outage.
  return Fail(why);
}

/// An admin-plane endpoint's body; any status but 200 is an error.
Result<std::string> AdminGet(const std::string& host, uint16_t port,
                             const std::string& path, int timeout_ms) {
  TCVS_ASSIGN_OR_RETURN(net::HttpResponse resp,
                        net::HttpGet(host, port, path, timeout_ms));
  if (resp.status != 200) {
    return Status::Unavailable(path + " answered HTTP " +
                               std::to_string(resp.status) + ": " + resp.body);
  }
  return std::move(resp.body);
}

/// One `tcvs top` observation: the counters and full histograms of /varz.
Result<util::MetricsSnapshot> FetchVarz(const std::string& host, uint16_t port,
                                        int timeout_ms) {
  TCVS_ASSIGN_OR_RETURN(std::string body,
                        AdminGet(host, port, "/varz", timeout_ms));
  TCVS_ASSIGN_OR_RETURN(util::JsonValue root, util::ParseJson(body));
  util::MetricsSnapshot out;
  if (const util::JsonValue* counters = root.Get("counters")) {
    for (const auto& [name, v] : counters->object()) {
      if (v.is_number()) out.counters[name] = v.AsU64();
    }
  }
  if (const util::JsonValue* hists = root.Get("histograms")) {
    for (const auto& [name, h] : hists->object()) {
      auto hist = util::Histogram::FromJson(h);
      if (!hist.ok()) {
        return Status::InvalidArgument("/varz histogram " + name + ": " +
                                       hist.status().ToString());
      }
      out.histograms.emplace(name, std::move(hist).ValueOrDie());
    }
  }
  return out;
}

uint64_t CounterDelta(const util::MetricsSnapshot& prev,
                      const util::MetricsSnapshot& cur,
                      const std::string& name) {
  auto c = cur.counters.find(name);
  if (c == cur.counters.end()) return 0;
  auto p = prev.counters.find(name);
  const uint64_t before = p == prev.counters.end() ? 0 : p->second;
  return c->second >= before ? c->second - before : 0;
}

void PrintTopFrame(const util::MetricsSnapshot& prev,
                   const util::MetricsSnapshot& cur, double dt_seconds) {
  static const char* kMethods[] = {"transact", "get_params", "shutdown",
                                   "list", "log_checkpoint"};
  // QUEUE/WORK/FSYNC first — they decompose the latency column (queue +
  // work + fsync = latency per request) — then the per-op work counters.
  static const char* kCostKeys[] = {"queue_us", "work_us",
                                    "wal_fsync_wait_us",
                                    "hashes",   "bytes_hashed",
                                    "vo_bytes", "wal_appends"};
  static const char* kCostHeaders[] = {"QUEUE/OP", "WORK/OP", "FSYNC/OP",
                                       "HSH/OP",   "BH/OP",   "VOB/OP",
                                       "WAL/OP"};
  constexpr size_t kNumCost = sizeof(kCostKeys) / sizeof(kCostKeys[0]);
  // Pad the METHOD column to the longest method name so the columns never
  // jitter when a long-named method (log_checkpoint) joins mid-session.
  static const int kMethodWidth = [] {
    size_t w = 0;
    for (const char* m : kMethods) w = std::max(w, std::strlen(m));
    return static_cast<int>(w);
  }();
  std::printf("-- %.1fs interval (interval quantiles) --\n", dt_seconds);
  std::printf("%-*s %8s %8s %8s", kMethodWidth, "METHOD", "QPS", "P50_US",
              "P99_US");
  for (const char* header : kCostHeaders) std::printf(" %9s", header);
  std::printf("\n");
  size_t rows = 0;
  for (const char* method : kMethods) {
    const std::string base = std::string("rpc.serve.") + method;
    const uint64_t ops = CounterDelta(prev, cur, base + ".requests_total");
    if (ops == 0) continue;
    ++rows;
    util::Histogram delta;
    if (auto it = cur.histograms.find(base + ".latency_us");
        it != cur.histograms.end()) {
      auto before = prev.histograms.find(base + ".latency_us");
      delta = before == prev.histograms.end()
                  ? it->second
                  : it->second.DeltaSince(before->second);
    }
    std::printf("%-*s %8.1f %8llu %8llu", kMethodWidth, method,
                static_cast<double>(ops) / dt_seconds,
                (unsigned long long)delta.p50(),
                (unsigned long long)delta.p99());
    // Cost-per-op columns; "-" for methods without cost instrumentation
    // (only execution-bearing RPCs charge the cost accumulator).
    const bool has_cost = cur.counters.count(base + ".cost.hashes_total") > 0;
    for (size_t k = 0; k < kNumCost; ++k) {
      if (!has_cost) {
        std::printf(" %9s", "-");
        continue;
      }
      const uint64_t cost_delta = CounterDelta(
          prev, cur, base + ".cost." + kCostKeys[k] + "_total");
      std::printf(" %9.1f", static_cast<double>(cost_delta) / ops);
    }
    std::printf("\n");
  }
  if (rows == 0) std::printf("(no RPCs served in the interval)\n");
}

/// Prints the /eventsz JSON lines as the human-readable audit table.
Status PrintEventsTable(const std::string& json_lines) {
  std::printf("%-5s %-26s %-5s %-8s %-6s %-16s %s\n", "SEQ", "KIND", "USER",
              "CTR", "EPOCH", "TRACE", "DETAIL");
  size_t count = 0;
  std::istringstream lines(json_lines);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    TCVS_ASSIGN_OR_RETURN(util::JsonValue e, util::ParseJson(line));
    const util::JsonValue* kind = e.Get("kind");
    const util::JsonValue* trace = e.Get("trace_id");
    const util::JsonValue* detail = e.Get("detail");
    if (kind == nullptr || !kind->is_string() || trace == nullptr ||
        !trace->is_string() || detail == nullptr || !detail->is_string()) {
      return Status::InvalidArgument("malformed /eventsz line: " + line);
    }
    std::printf("%-5llu %-26s %-5llu %-8llu %-6llu %-16s %s\n",
                (unsigned long long)e.GetU64("seq"), kind->string().c_str(),
                (unsigned long long)e.GetU64("user"),
                (unsigned long long)e.GetU64("ctr"),
                (unsigned long long)e.GetU64("epoch"),
                trace->string().c_str(), detail->string().c_str());
    ++count;
  }
  std::printf("%zu audit events\n", count);
  return Status::OK();
}

/// Runs one observability verb (stats | trace | events | profile | top)
/// against the admin plane at host:port.
int RunAdminCommand(const std::vector<std::string>& args,
                    const std::string& host, uint16_t port, int timeout_ms) {
  const std::string& cmd = args[0];
  if (cmd == "stats" || cmd == "trace") {
    if (args.size() != 1) return Usage();
    auto body = AdminGet(host, port, cmd == "stats" ? "/metrics" : "/tracez",
                         timeout_ms);
    if (!body.ok()) return Fail(body.status());
    std::fwrite(body->data(), 1, body->size(), stdout);
    return 0;
  }
  if (cmd == "events") {
    bool json = false;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] != "--json") return Usage();
      json = true;
    }
    auto body = AdminGet(host, port, "/eventsz", timeout_ms);
    if (!body.ok()) return Fail(body.status());
    if (json) {
      std::fwrite(body->data(), 1, body->size(), stdout);
      return 0;
    }
    Status st = PrintEventsTable(*body);
    return st.ok() ? 0 : Fail(st);
  }
  if (cmd == "profile") {
    int seconds = 5;
    int hz = 100;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--seconds" && i + 1 < args.size()) {
        if (!ParseNumber(args[++i], &seconds)) return Usage();
      } else if (args[i] == "--hz" && i + 1 < args.size()) {
        if (!ParseNumber(args[++i], &hz)) return Usage();
      } else {
        return Usage();
      }
    }
    // The server clamps the same way; clamping here sizes the deadline so
    // the window is not misread as a hung server.
    seconds = std::clamp(seconds, util::kMinProfileSeconds,
                         util::kMaxProfileSeconds);
    hz = std::clamp(hz, util::kMinProfileHz, util::kMaxProfileHz);
    std::fprintf(stderr, "tcvs: profiling server for %ds at %d Hz...\n",
                 seconds, hz);
    auto folded = AdminGet(host, port,
                           "/pprofz?fmt=folded&seconds=" +
                               std::to_string(seconds) +
                               "&hz=" + std::to_string(hz),
                           timeout_ms + seconds * 1000);
    if (!folded.ok()) return Fail(folded.status());
    std::fwrite(folded->data(), 1, folded->size(), stdout);
    return 0;
  }
  if (cmd == "top") {
    int interval_ms = 1000;
    int frames = 1;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--interval-ms" && i + 1 < args.size()) {
        if (!ParseNumber(args[++i], &interval_ms)) return Usage();
      } else if (args[i] == "--frames" && i + 1 < args.size()) {
        if (!ParseNumber(args[++i], &frames)) return Usage();
      } else {
        return Usage();
      }
    }
    if (interval_ms <= 0 || frames <= 0) return Usage();
    auto prev = FetchVarz(host, port, timeout_ms);
    if (!prev.ok()) return Fail(prev.status());
    for (int f = 0; f < frames; ++f) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      auto cur = FetchVarz(host, port, timeout_ms);
      if (!cur.ok()) return Fail(cur.status());
      PrintTopFrame(*prev, *cur, static_cast<double>(interval_ms) / 1000.0);
      prev = std::move(cur);
    }
    return 0;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7199;
  std::string admin_host;
  uint16_t admin_port = 0;
  std::string state_file;
  uint32_t user = 0;
  rpc::RemoteOptions remote_options;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      if (!ParseHostPort(argv[++i], &host, &port)) return Usage();
    } else if (std::strcmp(argv[i], "--admin") == 0 && i + 1 < argc) {
      if (!ParseHostPort(argv[++i], &admin_host, &admin_port)) return Usage();
    } else if (std::strcmp(argv[i], "--user") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &user)) return Usage();
    } else if (std::strcmp(argv[i], "--state") == 0 && i + 1 < argc) {
      state_file = argv[++i];
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &remote_options.retry.max_attempts)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--backoff-ms") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &remote_options.retry.initial_backoff_ms)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &remote_options.io_timeout_ms)) {
        return Usage();
      }
      remote_options.connect_timeout_ms = remote_options.io_timeout_ms;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  // A malformed commit is a usage error before any I/O, not after connect.
  uint64_t base_revision = 0;
  if (cmd == "commit" &&
      (args.size() != 4 || !ParseNumber(args[2], &base_revision))) {
    return Usage();
  }

  // Offline commands first.
  if (cmd == "check") {
    std::vector<cvs::ClientState> states;
    for (size_t i = 1; i < args.size(); ++i) {
      auto data = storage::ReadFileBytes(args[i]);
      if (!data.ok()) return Fail(data.status());
      auto state = cvs::ClientState::Deserialize(*data);
      if (!state.ok()) return Fail(state.status());
      states.push_back(std::move(state).ValueOrDie());
    }
    Status st = cvs::VerifyingClient::SyncCheck(states);
    std::printf("sync-up over %zu states: %s\n", states.size(),
                st.ok() ? "CONSISTENT — one serial history" : st.ToString().c_str());
    return st.ok() ? 0 : 3;
  }
  if (cmd == "state") {
    auto data = storage::ReadFileBytes(state_file);
    if (!data.ok()) return Fail(data.status());
    auto state = cvs::ClientState::Deserialize(*data);
    if (!state.ok()) return Fail(state.status());
    std::printf("user=%u lctr=%llu gctr=%llu\nsigma=%s\nlast =%s\n",
                state->user_id, (unsigned long long)state->lctr,
                (unsigned long long)state->gctr,
                util::HexEncode(state->sigma).c_str(),
                util::HexEncode(state->last).c_str());
    return 0;
  }

  if (cmd == "stats" || cmd == "trace" || cmd == "events" ||
      cmd == "profile" || cmd == "top") {
    if (admin_host.empty()) return Usage();
    return RunAdminCommand(args, admin_host, admin_port,
                           remote_options.io_timeout_ms);
  }

  // Commands over the verified RPC channel.
  auto remote = rpc::RemoteServer::Connect(host, port, remote_options);
  if (!remote.ok()) {
    if (rpc::IsRetryableTransport(remote.status())) {
      return ServeDegraded(cmd, args, state_file, remote.status());
    }
    return Fail(remote.status());
  }

  if (cmd == "shutdown") {
    Status st = (*remote)->Shutdown();
    if (!st.ok()) return Fail(st);
    std::printf("server shut down\n");
    return 0;
  }

  if (user == 0 || state_file.empty()) return Usage();

  // Load or initialize the client state.
  cvs::ClientState state;
  if (auto data = storage::ReadFileBytes(state_file); data.ok()) {
    auto parsed = cvs::ClientState::Deserialize(*data);
    if (!parsed.ok()) return Fail(parsed.status());
    state = std::move(parsed).ValueOrDie();
    if (state.user_id != user) {
      return Fail(Status::InvalidArgument("state file belongs to user " +
                                          std::to_string(state.user_id)));
    }
  } else {
    cvs::VerifyingClient fresh(user, remote->get());
    state = fresh.state();
  }
  cvs::VerifyingClient client(state, remote->get());
  cvs::LocalCache cache = LoadCache(state_file);
  bool cache_dirty = false;

  int rc = 0;
  if (cmd == "checkout" || cmd == "cat") {
    if (args.size() != 2) return Usage();
    auto rec = client.Checkout(args[1]);
    if (!rec.ok()) {
      rc = Fail(rec.status());
    } else {
      cache.Put(args[1], *rec);
      cache_dirty = true;
      if (cmd == "cat") {
        std::fwrite(rec->content.data(), 1, rec->content.size(), stdout);
      } else {
        std::printf("%s revision %llu (%zu bytes) [verified]\n",
                    args[1].c_str(), (unsigned long long)rec->revision,
                    rec->content.size());
      }
    }
  } else if (cmd == "commit") {
    auto rev = client.Commit(args[1], args[3], base_revision);
    if (!rev.ok()) {
      rc = Fail(rev.status());
    } else {
      cache.Put(args[1], cvs::FileRecord{*rev, args[3]});
      cache_dirty = true;
      std::printf("committed %s -> revision %llu [verified]\n", args[1].c_str(),
                  (unsigned long long)*rev);
    }
  } else if (cmd == "ls") {
    std::string prefix = args.size() > 1 ? args[1] : "";
    auto listing = client.ListDir(prefix);
    if (!listing.ok()) {
      rc = Fail(listing.status());
    } else {
      for (const auto& [path, revision] : *listing) {
        std::printf("%-50s r%llu\n", path.c_str(),
                    (unsigned long long)revision);
      }
      std::printf("%zu files [verified complete]\n", listing->size());
    }
  } else if (cmd == "audit") {
    Status st = client.AuditLog();
    if (!st.ok()) {
      rc = Fail(st);
    } else {
      std::printf("transparency log consistent; checkpoint advanced to %llu "
                  "entries [verified append-only]\n",
                  (unsigned long long)client.log_checkpoint_size());
    }
  } else if (cmd == "remove") {
    if (args.size() != 2) return Usage();
    Status st = client.Remove(args[1]);
    if (!st.ok()) {
      rc = Fail(st);
    } else {
      cache.Erase(args[1]);
      cache_dirty = true;
      std::printf("removed %s [verified]\n", args[1].c_str());
    }
  } else {
    return Usage();
  }

  // Persist the (possibly advanced) registers even after clean failures:
  // rejected commits are transactions too.
  if (rc != 3) {
    Status st =
        storage::AtomicWriteFile(state_file, client.state().Serialize());
    if (!st.ok()) return Fail(st);
    if (cache_dirty) {
      // Best-effort: the cache only feeds degraded mode; losing it costs
      // availability during an outage, never correctness.
      (void)storage::AtomicWriteFile(CachePath(state_file), cache.Serialize());
    }
  }
  return rc;
}
