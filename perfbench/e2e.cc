// End-to-end benchmark of the deployed verified stack, in one process:
//
//   cvs::VerifyingClient → rpc::RemoteServer → loopback TCP → rpc::Serve →
//   storage::DurableServer → mtree::MerkleBTree
//
// The server is configured like tcvsd's defaults (fanout 8, one serve
// worker per hardware thread, group-commit window 0, contention profiling
// on). Load comes from closed-loop clients: each client is one user with its
// own VerifyingClient and connection, and issues its next operation only
// after the previous verified reply was folded.
//
// Every result is checked against a shadow of every file's versions, and
// the run ends with VerifyingClient::SyncUp over every client. Layers are
// measured only from outside: a ServerApi decorator around each client's
// RemoteServer, a second one around the DurableServer handed to rpc::Serve,
// and deltas of the process metrics registry.
//
// Usage:
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --data-dir DIR [--trace-out FILE]
//
// Prints a human-readable report, then one JSON line:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures an untraced and a traced phase and reports the per-layer split.
// Exit code 0 iff every check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cvs/trusted.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "storage/durable.h"
#include "util/cost.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/random.h"

namespace tcvs::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Operations per deck of kDeckSize, by type. Each client deals its
/// operations from a freshly shuffled deck, so every run issues the mix
/// exactly and only the order and the files vary with the seed.
struct Mix {
  int checkout = 0;
  int commit = 0;
  int commit_many = 0;
  int list = 0;
  int audit = 0;
};
constexpr int kDeckSize = 20;

struct Workload {
  const char* name;
  int clients;
  size_t files;
  size_t files_per_dir;
  size_t min_bytes;
  size_t max_bytes;
  bool fsync;
  /// Build the repository with one transaction per file, so the
  /// transparency log holds one entry per file; otherwise batches of
  /// kSetupBatch files per CommitMany.
  bool setup_single_file;
  Mix mix;
  /// Only clients [0, auditing_clients) issue AuditLog; the others deal
  /// their audit cards as checkouts. With one auditor, audits never queue
  /// behind each other, and the other client's tail shows the wait.
  int auditing_clients = 0;
  /// Zipf θ of checkouts over all files (0 = uniform).
  double checkout_theta;
  /// Zipf θ of commits over the client's own files (0 = uniform).
  double commit_theta;
};

constexpr Workload kWorkloads[] = {
    {.name = "commit_durable",
     .clients = 4,
     .files = 10000,
     .files_per_dir = 100,
     .min_bytes = 1024,
     .max_bytes = 8192,
     .fsync = true,
     .setup_single_file = false,
     .mix = {.commit = 18, .commit_many = 2},
     .checkout_theta = 0,
     .commit_theta = 0.99},
    {.name = "checkout_hot",
     .clients = 2,
     .files = 20000,
     .files_per_dir = 100,
     .min_bytes = 1024,
     .max_bytes = 4096,
     .fsync = false,
     .setup_single_file = false,
     .mix = {.checkout = 19, .commit = 1},
     .checkout_theta = 0.99,
     .commit_theta = 0.99},
    {.name = "browse_audit",
     .clients = 2,
     .files = 50000,
     .files_per_dir = 100,
     .min_bytes = 256,
     .max_bytes = 1024,
     .fsync = false,
     .setup_single_file = true,
     .mix = {.checkout = 6, .list = 10, .audit = 4},
     .auditing_clients = 1,
     .checkout_theta = 0,
     .commit_theta = 0},
};

constexpr bool EveryMixFillsOneDeck() {
  for (const Workload& w : kWorkloads) {
    const Mix& m = w.mix;
    if (m.checkout + m.commit + m.commit_many + m.list + m.audit != kDeckSize) {
      return false;
    }
  }
  return true;
}
static_assert(EveryMixFillsOneDeck());

constexpr size_t kSetupBatch = 100;     // Files per setup CommitMany.
constexpr size_t kCommitManyFiles = 4;  // Files per workload CommitMany.
constexpr int kSetupRepeats = 3;        // setup_s is the median of these.
constexpr size_t kTreeFanout = 8;       // tcvsd's default --fanout.
constexpr uint32_t kSetupUser = 1000;
/// Spans of at most this many operations are written to the trace file
/// (metrics still cover every operation).
constexpr size_t kMaxTracedOpsWritten = 20000;

enum class Op : uint8_t { kCommit, kCommitMany, kCheckout, kList, kAudit };
constexpr int kNumOps = 5;
constexpr const char* kOpNames[kNumOps] = {"commit", "commit_many", "checkout",
                                           "list", "audit"};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1;
}

std::string RandomContent(util::Rng* rng, size_t lo, size_t hi) {
  std::string s(rng->UniformRange(lo, hi), '\0');
  for (size_t i = 0; i < s.size(); i += 8) {
    const uint64_t word = rng->Next();
    std::memcpy(&s[i], &word, std::min<size_t>(8, s.size() - i));
  }
  return s;
}

/// FNV-1a: the shadow keeps one 64-bit fingerprint per file version.
uint64_t Fingerprint(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

/// The initial repository, generated from the seed.
struct Population {
  std::vector<std::string> paths;  // Sorted; directory d holds a contiguous run.
  std::vector<std::string> contents;
  /// owned[c]: the files client c may write, hottest first.
  std::vector<std::vector<size_t>> owned;
  /// All files, hottest first (checkout popularity order).
  std::vector<size_t> hot_order;
};

Population MakePopulation(const Workload& w, uint64_t seed) {
  Population pop;
  util::Rng rng(SubSeed(seed, 1));
  pop.paths.reserve(w.files);
  pop.contents.reserve(w.files);
  for (size_t i = 0; i < w.files; ++i) {
    char path[64];
    std::snprintf(path, sizeof(path), "d%04zu/f%06zu", i / w.files_per_dir, i);
    pop.paths.emplace_back(path);
    pop.contents.push_back(RandomContent(&rng, w.min_bytes, w.max_bytes));
  }
  pop.owned.resize(static_cast<size_t>(w.clients));
  for (size_t i = 0; i < w.files; ++i) {
    pop.owned[i % static_cast<size_t>(w.clients)].push_back(i);
  }
  for (auto& files : pop.owned) rng.Shuffle(&files);
  pop.hot_order.resize(w.files);
  for (size_t i = 0; i < w.files; ++i) pop.hot_order[i] = i;
  rng.Shuffle(&pop.hot_order);
  return pop;
}

/// What every file must read as: the fingerprint of each revision ever
/// written (revision r at index r-1) and the highest revision acknowledged
/// to its owner. A writer stages a version BEFORE sending the commit, so a
/// concurrent reader that already sees it still finds it here.
class Shadow {
 public:
  explicit Shadow(const Population& pop) : files_(pop.contents.size()) {
    for (size_t i = 0; i < files_.size(); ++i) {
      files_[i].versions.push_back(Fingerprint(pop.contents[i]));
    }
  }

  uint64_t Acked(size_t f) const {
    std::lock_guard<std::mutex> lock(mu_);
    return files_[f].acked;
  }

  void Stage(size_t f, uint64_t rev, uint64_t fingerprint) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& versions = files_[f].versions;
    versions.resize(std::max<size_t>(versions.size(), rev));
    versions[rev - 1] = fingerprint;
  }

  void Ack(size_t f, uint64_t rev) {
    std::lock_guard<std::mutex> lock(mu_);
    files_[f].acked = rev;
  }

  /// True iff `rev` is a revision of `f` no older than `lo` (the revision
  /// acknowledged before the read began) and, when given, `content` is its
  /// content.
  bool Matches(size_t f, uint64_t lo, uint64_t rev,
               const std::string* content) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& versions = files_[f].versions;
    if (rev < lo || rev == 0 || rev > versions.size()) return false;
    return content == nullptr || versions[rev - 1] == Fingerprint(*content);
  }

 private:
  struct File {
    std::vector<uint64_t> versions;
    uint64_t acked = 1;
  };
  mutable std::mutex mu_;
  std::vector<File> files_;
};

// ---------------------------------------------------------------------------
// Layer taps: ServerApi decorators that time calls from outside.
// ---------------------------------------------------------------------------

/// Wraps one client's RemoteServer and remembers the window of the last
/// call, so client verify time = VerifyingClient call − RPC call.
class ClientTap : public cvs::ServerApi {
 public:
  explicit ClientTap(cvs::ServerApi* inner) : inner_(inner) {}

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    return Timed([&] { return inner_->Transact(user, ops); });
  }
  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return Timed([&] { return inner_->List(user, prefix); });
  }
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return Timed([&] { return inner_->LogCheckpoint(old_size); });
  }
  mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

  uint64_t call_start_us() const { return call_start_us_; }
  uint64_t call_end_us() const { return call_end_us_; }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Timed(Fn call) {
    call_start_us_ = util::MonotonicMicros();
    auto result = call();
    call_end_us_ = util::MonotonicMicros();
    return result;
  }

  cvs::ServerApi* inner_;
  uint64_t call_start_us_ = 0;
  uint64_t call_end_us_ = 0;
};

enum class Method : uint8_t { kTransact, kList, kLogCheckpoint };
constexpr const char* kMethodSpanNames[] = {
    "cvs.server.transact", "cvs.server.list", "cvs.server.log_checkpoint"};

/// One server-side call, joined to its client operation by trace id.
struct ServerSpan {
  uint64_t trace_id = 0;
  Method method = Method::kTransact;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  /// The request's serve-queue wait so far (connection queue + execution
  /// lock), read from its cost vector when the call begins.
  uint64_t queue_us = 0;
  uint32_t thread = 0;
};

/// Wraps the DurableServer handed to rpc::Serve. While recording, every
/// call is kept as a ServerSpan under the trace id its RPC header carried.
class ServerTap : public cvs::ServerApi {
 public:
  explicit ServerTap(cvs::ServerApi* inner) : inner_(inner) {}

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    return Timed(Method::kTransact, [&] { return inner_->Transact(user, ops); });
  }
  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return Timed(Method::kList, [&] { return inner_->List(user, prefix); });
  }
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return Timed(Method::kLogCheckpoint,
                 [&] { return inner_->LogCheckpoint(old_size); });
  }
  mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }

  std::vector<ServerSpan> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Timed(Method method, Fn call) {
    if (!recording_.load(std::memory_order_relaxed)) return call();
    ServerSpan span;
    span.trace_id = util::CurrentSpanContext().trace_id;
    span.method = method;
    if (const util::CostCounters* cost = util::CurrentCostCounters()) {
      span.queue_us = cost->queue_us;
    }
    span.thread = util::TraceSpan::CurrentThreadHash();
    span.start_us = util::MonotonicMicros();
    auto result = call();
    span.end_us = util::MonotonicMicros();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
    return result;
  }

  cvs::ServerApi* inner_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<ServerSpan> spans_;
};

// ---------------------------------------------------------------------------
// One deployment: data directory, durable server, serve loop, clients.
// ---------------------------------------------------------------------------

struct Client {
  std::unique_ptr<rpc::RemoteServer> remote;
  std::unique_ptr<ClientTap> tap;
  std::unique_ptr<cvs::VerifyingClient> verifier;
};

class Deployment {
 public:
  /// Builds the repository through an in-process verifying setup client,
  /// starts serving it on a loopback port, and connects the clients.
  static Result<std::unique_ptr<Deployment>> Open(const Workload& w,
                                                  const Population& pop,
                                                  const std::string& dir) {
    std::unique_ptr<Deployment> d(new Deployment(dir));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
    storage::DurableOptions options;
    options.fsync = w.fsync;
    options.group_commit_window_us = 0;
    TCVS_ASSIGN_OR_RETURN(
        d->durable_, storage::DurableServer::Open(
                         dir, mtree::TreeParams{kTreeFanout, kTreeFanout},
                         options));
    d->tap_ = std::make_unique<ServerTap>(d->durable_.get());
    d->setup_client_ =
        std::make_unique<cvs::VerifyingClient>(kSetupUser, d->durable_.get());
    TCVS_RETURN_NOT_OK(d->Populate(w, pop));

    TCVS_ASSIGN_OR_RETURN(net::TcpListener listener, net::TcpListener::Bind(0));
    d->port_ = listener.port();
    rpc::ServeOptions serve;
    const unsigned hw = std::thread::hardware_concurrency();
    serve.num_threads = static_cast<int>(hw > 2 ? hw : 2);
    d->serve_thread_ = std::thread(
        [d = d.get(), l = std::move(listener), serve]() mutable {
          d->serve_status_ = rpc::Serve(&l, d->tap_.get(), serve);
        });

    for (int c = 0; c < w.clients; ++c) {
      Client client;
      TCVS_ASSIGN_OR_RETURN(client.remote,
                            rpc::RemoteServer::Connect("127.0.0.1", d->port_));
      client.tap = std::make_unique<ClientTap>(client.remote.get());
      client.verifier = std::make_unique<cvs::VerifyingClient>(
          static_cast<uint32_t>(c + 1), client.tap.get());
      d->clients_.push_back(std::move(client));
    }
    return d;
  }

  ~Deployment() {
    if (serve_thread_.joinable()) {
      clients_.clear();  // Frees the serve workers holding their connections.
      auto control = rpc::RemoteServer::Connect("127.0.0.1", port_);
      if (control.ok()) {
        (void)(*control)->Shutdown();
      } else {
        std::fprintf(stderr, "perfbench: cannot stop the serve loop: %s\n",
                     control.status().ToString().c_str());
        std::abort();  // Joining would hang forever.
      }
      serve_thread_.join();
      if (!serve_status_.ok()) {
        std::fprintf(stderr, "perfbench: serve loop: %s\n",
                     serve_status_.ToString().c_str());
      }
    }
    durable_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::vector<Client>& clients() { return clients_; }
  ServerTap* server_tap() { return tap_.get(); }

  /// The paper's §4.3 sync-up over every user that ever transacted.
  Status SyncUp() {
    std::vector<cvs::VerifyingClient*> all = {setup_client_.get()};
    for (auto& c : clients_) all.push_back(c.verifier.get());
    return cvs::VerifyingClient::SyncUp(all);
  }

 private:
  explicit Deployment(std::string dir) : dir_(std::move(dir)) {}

  Status Populate(const Workload& w, const Population& pop) {
    if (w.setup_single_file) {
      for (size_t i = 0; i < pop.paths.size(); ++i) {
        TCVS_ASSIGN_OR_RETURN(
            uint64_t rev,
            setup_client_->Commit(pop.paths[i], pop.contents[i], 0));
        if (rev != 1) return Status::Internal("setup commit: unexpected rev");
      }
      return Status::OK();
    }
    for (size_t i = 0; i < pop.paths.size(); i += kSetupBatch) {
      std::vector<cvs::FileOp> ops;
      for (size_t j = i; j < std::min(i + kSetupBatch, pop.paths.size()); ++j) {
        ops.push_back({cvs::FileOp::Kind::kCommit, pop.paths[j],
                       pop.contents[j], 0});
      }
      TCVS_RETURN_NOT_OK(setup_client_->CommitMany(ops).status());
    }
    return Status::OK();
  }

  std::string dir_;
  std::unique_ptr<storage::DurableServer> durable_;
  std::unique_ptr<ServerTap> tap_;
  std::unique_ptr<cvs::VerifyingClient> setup_client_;
  uint16_t port_ = 0;
  std::vector<Client> clients_;
  Status serve_status_;
  std::thread serve_thread_;  // Last: it uses the members above.
};

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

struct Sample {
  uint64_t latency_ns;
  Op op;
};

/// A recorded operation of the traced phase.
struct TracedOp {
  Op op;
  uint32_t thread;
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t start_us;
  uint64_t end_us;
  uint64_t call_start_us;
  uint64_t call_end_us;
};

struct ClientRun {
  std::vector<Sample> samples;
  std::vector<TracedOp> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
};

/// Draws one client's operations from its seeded stream.
class OpPicker {
 public:
  OpPicker(const Workload& w, const Population& pop, size_t client)
      : w_(w),
        pop_(pop),
        owned_(pop.owned[client]),
        owned_zipf_(owned_.size(), w.commit_theta),
        all_zipf_(pop.hot_order.size(), w.checkout_theta),
        audits_(static_cast<int>(client) < w.auditing_clients ? w.mix.audit
                                                               : 0) {}

  Op NextOp(util::Rng* rng) {
    if (deck_.empty()) {
      deck_.insert(deck_.end(), w_.mix.checkout + w_.mix.audit - audits_,
                   Op::kCheckout);
      deck_.insert(deck_.end(), w_.mix.commit, Op::kCommit);
      deck_.insert(deck_.end(), w_.mix.commit_many, Op::kCommitMany);
      deck_.insert(deck_.end(), w_.mix.list, Op::kList);
      deck_.insert(deck_.end(), audits_, Op::kAudit);
      rng->Shuffle(&deck_);
    }
    const Op op = deck_.back();
    deck_.pop_back();
    return op;
  }

  size_t OwnedFile(util::Rng* rng) {
    return owned_[w_.commit_theta > 0 ? owned_zipf_.Next(rng)
                                      : rng->Uniform(owned_.size())];
  }

  size_t AnyFile(util::Rng* rng) {
    return pop_.hot_order[w_.checkout_theta > 0
                              ? all_zipf_.Next(rng)
                              : rng->Uniform(pop_.hot_order.size())];
  }

  size_t Dir(util::Rng* rng) const {
    return rng->Uniform(pop_.paths.size() / w_.files_per_dir);
  }

 private:
  const Workload& w_;
  const Population& pop_;
  const std::vector<size_t>& owned_;
  util::ZipfGenerator owned_zipf_;
  util::ZipfGenerator all_zipf_;
  const int audits_;  // Audit cards per deck for this client.
  std::vector<Op> deck_;
};

/// Issues one verified operation and checks its result against the shadow.
/// *t0 / *t1 bracket the VerifyingClient call alone.
Status IssueOp(const Workload& w, const Population& pop, Shadow* shadow,
               OpPicker* picker, util::Rng* rng, cvs::VerifyingClient* client,
               Op op, uint64_t* t0, uint64_t* t1) {
  switch (op) {
    case Op::kCommit: {
      const size_t f = picker->OwnedFile(rng);
      const uint64_t base = shadow->Acked(f);
      std::string content = RandomContent(rng, w.min_bytes, w.max_bytes);
      shadow->Stage(f, base + 1, Fingerprint(content));
      *t0 = NowNs();
      auto rev = client->Commit(pop.paths[f], std::move(content), base);
      *t1 = NowNs();
      TCVS_RETURN_NOT_OK(rev.status());
      if (*rev != base + 1) return Status::Internal("commit: wrong revision");
      shadow->Ack(f, base + 1);
      return Status::OK();
    }
    case Op::kCommitMany: {
      std::vector<size_t> files;
      while (files.size() < kCommitManyFiles) {
        const size_t f = picker->OwnedFile(rng);
        if (std::find(files.begin(), files.end(), f) == files.end()) {
          files.push_back(f);
        }
      }
      std::vector<cvs::FileOp> ops;
      for (size_t f : files) {
        const uint64_t base = shadow->Acked(f);
        std::string content = RandomContent(rng, w.min_bytes, w.max_bytes);
        shadow->Stage(f, base + 1, Fingerprint(content));
        ops.push_back({cvs::FileOp::Kind::kCommit, pop.paths[f],
                       std::move(content), base});
      }
      *t0 = NowNs();
      auto revs = client->CommitMany(ops);
      *t1 = NowNs();
      TCVS_RETURN_NOT_OK(revs.status());
      for (size_t i = 0; i < files.size(); ++i) {
        if ((*revs)[i] != ops[i].base_revision + 1) {
          return Status::Internal("commit_many: wrong revision");
        }
        shadow->Ack(files[i], ops[i].base_revision + 1);
      }
      return Status::OK();
    }
    case Op::kCheckout: {
      const size_t f = picker->AnyFile(rng);
      const uint64_t lo = shadow->Acked(f);
      *t0 = NowNs();
      auto record = client->Checkout(pop.paths[f]);
      *t1 = NowNs();
      TCVS_RETURN_NOT_OK(record.status());
      if (!shadow->Matches(f, lo, record->revision, &record->content)) {
        return Status::Internal("checkout of " + pop.paths[f] +
                                " disagrees with the shadow");
      }
      return Status::OK();
    }
    case Op::kList: {
      const size_t d = picker->Dir(rng);
      const size_t first = d * w.files_per_dir;
      std::vector<uint64_t> lo(w.files_per_dir);
      for (size_t k = 0; k < lo.size(); ++k) lo[k] = shadow->Acked(first + k);
      const std::string prefix = pop.paths[first].substr(0, 6);  // "dNNNN/"
      *t0 = NowNs();
      auto rows = client->ListDir(prefix);
      *t1 = NowNs();
      TCVS_RETURN_NOT_OK(rows.status());
      if (rows->size() != w.files_per_dir) {
        return Status::Internal("list of " + prefix + ": wrong entry count");
      }
      for (size_t k = 0; k < rows->size(); ++k) {
        const auto& [path, rev] = (*rows)[k];
        if (path != pop.paths[first + k] ||
            !shadow->Matches(first + k, lo[k], rev, nullptr)) {
          return Status::Internal("list of " + prefix +
                                  " disagrees with the shadow");
        }
      }
      return Status::OK();
    }
    case Op::kAudit: {
      *t0 = NowNs();
      Status st = client->AuditLog();
      *t1 = NowNs();
      return st;
    }
  }
  return Status::Internal("unknown op");
}

/// Runs every client's closed loop for `seconds`. A client stops at its
/// first failed operation (its later operations would only cascade).
/// Returns per-client results; *elapsed_s is start → last completion.
std::vector<ClientRun> RunPhase(const Workload& w, const Population& pop,
                                Shadow* shadow, Deployment* d, uint64_t seed,
                                int phase, double seconds, bool record,
                                double* elapsed_s) {
  const size_t n = d->clients().size();
  std::vector<ClientRun> runs(n);
  std::vector<uint64_t> last_end_ns(n, 0);
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(SubSeed(seed, 1000 + 16 * c + static_cast<uint64_t>(phase)));
      OpPicker picker(w, pop, c);
      Client& client = d->clients()[c];
      ClientRun& run = runs[c];
      const uint32_t thread = util::TraceSpan::CurrentThreadHash();
      while (NowNs() < deadline_ns) {
        const Op op = picker.NextOp(&rng);
        const uint64_t trace_id = util::NewTraceId();
        const uint64_t span_id = util::NewTraceId();
        uint64_t t0 = 0, t1 = 0;
        Status st;
        {
          // The RPC header carries this trace id, so the server-side span
          // joins the operation.
          util::ScopedTraceContext ctx(trace_id, span_id);
          st = IssueOp(w, pop, shadow, &picker, &rng, client.verifier.get(),
                       op, &t0, &t1);
        }
        ++run.attempted;
        if (!st.ok()) {
          ++run.failed;
          run.error = std::string(kOpNames[static_cast<int>(op)]) + ": " +
                      st.ToString();
          break;
        }
        run.samples.push_back({t1 - t0, op});
        last_end_ns[c] = t1;
        if (record) {
          run.traced.push_back({op, thread, trace_id, span_id, t0 / 1000,
                                t1 / 1000, client.tap->call_start_us(),
                                client.tap->call_end_us()});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t end_ns = *std::max_element(last_end_ns.begin(),
                                            last_end_ns.end());
  *elapsed_s = end_ns > start_ns ? (end_ns - start_ns) / 1e9 : seconds;
  return runs;
}

// ---------------------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of an ascending vector (0 when empty).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Latency summary of one phase.
struct LatencyStats {
  uint64_t ops = 0;
  double ops_per_s = 0;
  std::vector<double> all_us;  // Sorted.
  std::vector<double> by_op_us[kNumOps];  // Sorted.
};

LatencyStats Summarize(const std::vector<ClientRun>& runs, double elapsed_s) {
  LatencyStats s;
  for (const auto& run : runs) {
    for (const Sample& sample : run.samples) {
      const double us = sample.latency_ns / 1000.0;
      s.all_us.push_back(us);
      s.by_op_us[static_cast<int>(sample.op)].push_back(us);
    }
  }
  std::sort(s.all_us.begin(), s.all_us.end());
  for (auto& v : s.by_op_us) std::sort(v.begin(), v.end());
  s.ops = s.all_us.size();
  s.ops_per_s = Ratio(static_cast<double>(s.ops), elapsed_s);
  return s;
}

/// commit_p50_us covers Commit and CommitMany together.
std::vector<double> CommitLatencies(const LatencyStats& s) {
  std::vector<double> v = s.by_op_us[static_cast<int>(Op::kCommit)];
  const auto& many = s.by_op_us[static_cast<int>(Op::kCommitMany)];
  v.insert(v.end(), many.begin(), many.end());
  std::sort(v.begin(), v.end());
  return v;
}

uint64_t CounterDelta(const util::MetricsSnapshot& before,
                      const util::MetricsSnapshot& after,
                      const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  const uint64_t base = b == before.counters.end() ? 0 : b->second;
  return a->second > base ? a->second - base : 0;
}

util::Histogram HistogramDelta(const util::MetricsSnapshot& before,
                               const util::MetricsSnapshot& after,
                               const std::string& name) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return util::Histogram();
  auto b = before.histograms.find(name);
  return b == before.histograms.end() ? a->second
                                      : a->second.DeltaSince(b->second);
}

uint64_t ServeCostDelta(const util::MetricsSnapshot& before,
                        const util::MetricsSnapshot& after,
                        const std::string& suffix) {
  uint64_t total = 0;
  for (const char* m : {"transact", "list", "log_checkpoint"}) {
    total += CounterDelta(before, after, std::string("rpc.serve.") + m + suffix);
  }
  return total;
}

/// The per-layer split of the traced phase, plus the reconciliation check.
struct LayerReport {
  std::vector<Metric> metrics;
  double negative_frac = 0;
  uint64_t unmatched = 0;
  util::TraceDump dump;
};

LayerReport AnalyzeTrace(const std::vector<ClientRun>& runs,
                         std::vector<ServerSpan> server_spans,
                         const util::MetricsSnapshot& before,
                         const util::MetricsSnapshot& after) {
  LayerReport r;
  std::unordered_map<uint64_t, const ServerSpan*> by_trace;
  for (const ServerSpan& s : server_spans) by_trace[s.trace_id] = &s;

  double txn = 0, verify = 0, call = 0, transport = 0;
  double server_us[3] = {0, 0, 0};
  uint64_t server_calls[3] = {0, 0, 0};
  uint64_t ops = 0, negative = 0, written = 0;
  for (const ClientRun& run : runs) {
    for (const TracedOp& op : run.traced) {
      ++ops;
      auto it = by_trace.find(op.trace_id);
      if (it == by_trace.end()) {
        ++r.unmatched;
        continue;
      }
      const ServerSpan& s = *it->second;
      const double client_us = static_cast<double>(op.end_us - op.start_us);
      const double call_us =
          static_cast<double>(op.call_end_us - op.call_start_us);
      const double server = static_cast<double>(s.end_us - s.start_us);
      const double q = static_cast<double>(s.queue_us);
      const double v = client_us - call_us;
      const double t = call_us - q - server;
      if (v < 0 || t < 0) ++negative;
      txn += client_us;
      verify += v;
      call += call_us;
      transport += t;
      const int m = static_cast<int>(s.method);
      server_us[m] += server;
      ++server_calls[m];

      if (written++ < kMaxTracedOpsWritten) {
        // One trace per operation: the client operation is the root, the
        // RPC call its child, and the serve queue wait and server call are
        // children of the RPC call.
        const uint64_t call_span = util::NewTraceId();
        const std::string op_name =
            std::string("cvs.client.") + kOpNames[static_cast<int>(op.op)];
        r.dump.events.push_back({op_name, op.start_us, op.end_us - op.start_us,
                                 op.thread, op.trace_id, op.span_id, 0});
        r.dump.events.push_back({"rpc.client.call", op.call_start_us,
                                 op.call_end_us - op.call_start_us, op.thread,
                                 op.trace_id, call_span, op.span_id});
        if (s.queue_us > 0) {
          r.dump.events.push_back({"rpc.serve.queue", s.start_us - s.queue_us,
                                   s.queue_us, s.thread, op.trace_id,
                                   util::NewTraceId(), call_span});
        }
        r.dump.events.push_back({kMethodSpanNames[m], s.start_us,
                                 s.end_us - s.start_us, s.thread, op.trace_id,
                                 util::NewTraceId(), call_span});
      }
    }
  }
  const uint64_t matched = ops - r.unmatched;
  const double nm = static_cast<double>(matched);
  const double n = static_cast<double>(ops);
  r.negative_frac = Ratio(static_cast<double>(negative + r.unmatched), n);

  auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  auto mean_us = [&](const std::string& span) {
    const util::Histogram h = HistogramDelta(before, after, span + ".latency_us");
    return std::pair<double, double>(Ratio(h.sum(), h.count()), h.count());
  };
  auto& out = r.metrics;
  out.push_back({"trace.ops", n, "count"});
  out.push_back({"trace.negative_frac", r.negative_frac, "ratio"});
  out.push_back({"trace.unmatched_ops", static_cast<double>(r.unmatched),
                 "count"});
  // cvs (client)
  out.push_back({"cvs.client.txn_us", Ratio(txn, nm), "us"});
  out.push_back({"cvs.client.verify_us", Ratio(verify, nm), "us"});
  // rpc / net
  const double requests =
      static_cast<double>(ServeCostDelta(before, after, ".requests_total"));
  out.push_back({"rpc.client.call_us", Ratio(call, nm), "us"});
  out.push_back({"rpc.transport_us", Ratio(transport, nm), "us"});
  out.push_back({"rpc.transport_share", Ratio(transport, txn), "ratio"});
  out.push_back(
      {"rpc.serve.queue_us",
       Ratio(ServeCostDelta(before, after, ".cost.queue_us_total"), requests),
       "us"});
  out.push_back({"rpc.serve.requests", requests, "count"});
  out.push_back(
      {"net.bytes_per_op", Ratio(delta("net.bytes_sent_total"), n), "B/op"});
  out.push_back(
      {"net.frames_per_op", Ratio(delta("net.frames_sent_total"), n), "1/op"});
  out.push_back({"rpc.client.retries_per_op",
                 Ratio(delta("rpc.client.retries_total"), n), "1/op"});
  out.push_back({"rpc.serve.reply_cache.hits",
                 delta("rpc.serve.reply_cache.hits_total"), "count"});
  // cvs (server)
  for (int m = 0; m < 3; ++m) {
    out.push_back({std::string(kMethodSpanNames[m]) + "_us",
                   Ratio(server_us[m], static_cast<double>(server_calls[m])),
                   "us"});
    out.push_back({std::string(kMethodSpanNames[m]) + "_calls",
                   static_cast<double>(server_calls[m]), "count"});
  }
  // storage
  const double fsyncs = delta("storage.wal.fsyncs_total");
  const double appends = delta("storage.wal.appends_total");
  out.push_back({"storage.wal.fsyncs", fsyncs, "count"});
  out.push_back({"storage.wal.appends", appends, "count"});
  out.push_back({"storage.wal.fsyncs_per_op", Ratio(fsyncs, n), "1/op"});
  out.push_back(
      {"storage.wal.appends_per_fsync", Ratio(appends, fsyncs), "ratio"});
  out.push_back({"storage.wal.fsync_us", mean_us("storage.wal.fsync").first,
                 "us"});
  out.push_back({"storage.wal.bytes_per_op",
                 Ratio(delta("storage.wal.bytes_total"), n), "B/op"});
  out.push_back(
      {"storage.fsync_wait_us",
       Ratio(ServeCostDelta(before, after, ".cost.wal_fsync_wait_us_total"), n),
       "us"});
  // mtree
  for (const char* span :
       {"mtree.tree.prove_point", "mtree.tree.upsert", "mtree.tree.prove_range",
        "mtree.vo.verify_point", "mtree.vo.apply_upsert",
        "mtree.vo.verify_range"}) {
    const auto [mean, count] = mean_us(span);
    out.push_back({std::string(span) + "_us", mean, "us"});
    out.push_back({std::string(span) + "_calls", count, "count"});
  }
  const double hits = delta("mtree.vo.cache.hits_total");
  const double lookups = hits + delta("mtree.vo.cache.misses_total");
  const double memo_hits = delta("mtree.vo.cache.read_memo_hits_total");
  const double memo_lookups =
      memo_hits + delta("mtree.vo.cache.read_memo_misses_total");
  out.push_back({"mtree.vo.cache.hit_ratio", Ratio(hits, lookups), "ratio"});
  out.push_back({"mtree.vo.cache.lookups", lookups, "count"});
  out.push_back({"mtree.vo.cache.read_memo_hit_ratio",
                 Ratio(memo_hits, memo_lookups), "ratio"});
  out.push_back({"mtree.vo.cache.read_memo_lookups", memo_lookups, "count"});
  const util::Histogram vo = HistogramDelta(before, after, "cvs.client.vo_bytes");
  const util::Histogram range_vo =
      HistogramDelta(before, after, "cvs.client.range_vo_bytes");
  out.push_back({"mtree.vo.bytes_per_op",
                 Ratio(static_cast<double>(vo.sum() + range_vo.sum()), n),
                 "B/op"});
  // crypto
  const double server_hashes =
      static_cast<double>(ServeCostDelta(before, after, ".cost.hashes_total"));
  const double all_hashes = delta("crypto.sha256.hashes_total");
  out.push_back({"crypto.sha256.server_hashes_per_op", Ratio(server_hashes, n),
                 "1/op"});
  out.push_back({"crypto.sha256.client_hashes_per_op",
                 Ratio(std::max(0.0, all_hashes - server_hashes), n), "1/op"});
  return r;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  util::SetContentionProfilingEnabled(true);  // tcvsd's default.

  const Population pop = MakePopulation(*w, args.seed);
  const std::string dir_base = args.data_dir + "/" + w->name + "-" +
                               std::to_string(::getpid()) + "-";

  // Set-up: build, serve and connect; repeated, and all but the last torn
  // down again. The trace run measures no set-up time and sets up once.
  const int repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < repeats; ++i) {
    d.reset();
    const uint64_t t0 = NowNs();
    auto opened = Deployment::Open(*w, pop, dir_base + std::to_string(i));
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    d = std::move(opened).ValueOrDie();
  }
  // Read before any operation: what a run accumulates per operation (client
  // cache memos, log leaves, this program's samples) would otherwise make
  // memory grow with throughput.
  const double peak_rss_mb = PeakRssMb();

  Shadow shadow(pop);
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  auto tally = [&](const std::vector<ClientRun>& runs) {
    for (const auto& run : runs) {
      attempted += run.attempted;
      failed += run.failed;
      if (first_error.empty()) first_error = run.error;
    }
  };

  // Warm-up: fill the client caches before anything is timed.
  double elapsed = 0;
  tally(RunPhase(*w, pop, &shadow, d.get(), args.seed, 0,
                 std::min(2.0, args.seconds / 5), false, &elapsed));

  // The trace run splits its time between an untraced and a traced phase;
  // their throughput difference is the tracing overhead.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<ClientRun> measured = RunPhase(
      *w, pop, &shadow, d.get(), args.seed, 1, phase_s, false, &elapsed);
  tally(measured);
  const LatencyStats stats = Summarize(measured, elapsed);

  std::vector<Metric> metrics;
  const double p99 = Quantile(stats.all_us, 0.99);
  const auto beyond_p99 = static_cast<double>(
      stats.all_us.end() -
      std::upper_bound(stats.all_us.begin(), stats.all_us.end(), p99));
  bool reconciled = true;
  if (!args.trace) {
    metrics.push_back({"ops_per_s", stats.ops_per_s, "1/s"});
    metrics.push_back({"txn_p50_us", Quantile(stats.all_us, 0.5), "us"});
    metrics.push_back({"txn_p99_us", p99, "us"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    ServerTap* tap = d->server_tap();
    const util::MetricsSnapshot before =
        util::MetricsRegistry::Instance().Snapshot();
    tap->set_recording(true);
    double traced_elapsed = 0;
    std::vector<ClientRun> traced =
        RunPhase(*w, pop, &shadow, d.get(), args.seed, 2, phase_s, true,
                 &traced_elapsed);
    tap->set_recording(false);
    const util::MetricsSnapshot after =
        util::MetricsRegistry::Instance().Snapshot();
    tally(traced);
    const LatencyStats traced_stats = Summarize(traced, traced_elapsed);
    LayerReport layers = AnalyzeTrace(traced, tap->Take(), before, after);
    // A derived layer time below zero means the layers do not add up to
    // what the client observed; more than 1% of operations fails the run.
    reconciled = layers.negative_frac <= 0.01;

    // End-to-end context of the untraced phase, by operation type.
    metrics.push_back({"txn_samples", static_cast<double>(stats.ops), "count"});
    metrics.push_back({"txn_beyond_p99", beyond_p99, "count"});
    const std::vector<double> commits = CommitLatencies(stats);
    metrics.push_back({"commit_p50_us", Quantile(commits, 0.5), "us"});
    metrics.push_back(
        {"commit_ops", static_cast<double>(commits.size()), "count"});
    for (Op op : {Op::kCheckout, Op::kList, Op::kAudit}) {
      const auto& v = stats.by_op_us[static_cast<int>(op)];
      const std::string name = kOpNames[static_cast<int>(op)];
      metrics.push_back({name + "_p50_us", Quantile(v, 0.5), "us"});
      metrics.push_back({name + "_ops", static_cast<double>(v.size()), "count"});
    }
    metrics.push_back({"failed_frac",
                       Ratio(static_cast<double>(failed), attempted), "ratio"});
    metrics.push_back({"trace.overhead_frac",
                       1 - Ratio(traced_stats.ops_per_s, stats.ops_per_s),
                       "ratio"});
    metrics.insert(metrics.end(), layers.metrics.begin(), layers.metrics.end());

    if (!args.trace_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_out).parent_path(), ec);
      std::ofstream out(args.trace_out, std::ios::binary | std::ios::trunc);
      out << layers.dump.ChromeTraceJson();
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
  }

  // The paper's promise: an honest server is never accused.
  ++attempted;
  const Status sync = d->SyncUp();
  if (!sync.ok()) {
    ++failed;
    if (first_error.empty()) first_error = "SyncUp: " + sync.ToString();
  }
  d.reset();
  std::error_code ec;
  std::filesystem::remove(args.data_dir, ec);  // Only if left empty.

  const bool correct = failed == 0 && reconciled;
  std::printf("workload %s seed %llu: %d clients, closed loop, %.1f s "
              "measured, %llu samples (%.0f beyond p99)\n",
              w->name, static_cast<unsigned long long>(args.seed), w->clients,
              elapsed, static_cast<unsigned long long>(stats.ops), beyond_p99);
  for (int op = 0; op < kNumOps; ++op) {
    if (stats.by_op_us[op].empty()) continue;
    std::printf("  %-12s n=%-7zu p50=%.1f us\n", kOpNames[op],
                stats.by_op_us[op].size(), Quantile(stats.by_op_us[op], 0.5));
  }
  for (const Metric& m : metrics) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!first_error.empty()) {
    std::printf("FAILED: %s\n", first_error.c_str());
  }
  if (!reconciled) std::printf("FAILED: layer times do not reconcile\n");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tcvs::perfbench

int main(int argc, char** argv) { return tcvs::perfbench::Main(argc, argv); }
