#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace tcvs {
namespace util {

/// \file
/// Per-request cost accounting: the paper's protocol-overhead table,
/// measured live on served traffic instead of in a bench.
///
/// A CostScope installed on a thread makes that thread's instrumented
/// subsystems — SHA-256 compression, VO serialization, WAL staging and
/// fsync waits — accumulate into its
/// CostCounters for the scope's lifetime. The serve loop arms one scope per
/// request, aggregates the vector into per-method `rpc.serve.<m>.cost.*`
/// counters (surfaced by `/varz` and `tcvs top`), and attaches it to
/// slow-op records.
///
/// Hot-path cost when no scope is armed: one thread-local pointer load per
/// hook. Scopes nest by shadowing — an inner scope captures alone; the
/// outer resumes when it exits (the serve loop never nests them).

/// \brief The cost vector one request accumulated.
struct CostCounters {
  /// SHA-256 digests finalized.
  uint64_t hashes = 0;
  /// Bytes through the SHA-256 compression function (message + padding).
  uint64_t bytes_hashed = 0;
  /// Bytes of Merkle verification objects serialized for the reply.
  uint64_t vo_bytes_built = 0;
  /// WAL records staged.
  uint64_t wal_appends = 0;
  /// Microseconds blocked waiting for the covering WAL flush (group-commit
  /// wait included — the durability price this request actually paid).
  uint64_t wal_fsync_wait_us = 0;
  /// Microseconds spent queued before work started: connection-queue wait
  /// (accepted but no worker free) plus serve execution-lock wait. With
  /// `work_us := latency_us − queue_us − wal_fsync_wait_us`, a request's
  /// served latency decomposes into queue + work + fsync.
  uint64_t queue_us = 0;

  void Add(const CostCounters& other) {
    hashes += other.hashes;
    bytes_hashed += other.bytes_hashed;
    vo_bytes_built += other.vo_bytes_built;
    wal_appends += other.wal_appends;
    wal_fsync_wait_us += other.wal_fsync_wait_us;
    queue_us += other.queue_us;
  }

  bool operator==(const CostCounters& other) const {
    return hashes == other.hashes && bytes_hashed == other.bytes_hashed &&
           vo_bytes_built == other.vo_bytes_built &&
           wal_appends == other.wal_appends &&
           wal_fsync_wait_us == other.wal_fsync_wait_us &&
           queue_us == other.queue_us;
  }
};

/// \brief RAII: installs a fresh CostCounters as the thread's accumulation
/// target; restores the previously installed scope (if any) on destruction.
class CostScope {
 public:
  CostScope();
  ~CostScope();

  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

  const CostCounters& counters() const { return counters_; }

 private:
  CostCounters counters_;
  CostCounters* prev_;
};

/// The calling thread's active accumulation target, or nullptr when no
/// CostScope is installed. Instrumentation hooks do
/// `if (auto* c = CurrentCostCounters()) c->hashes += n;`.
CostCounters* CurrentCostCounters();

/// \brief One served request that exceeded the slow-op threshold: enough to
/// go from "p99 spiked" to the exact request — method, latency, a joinable
/// trace id, the request's own span subtree, and the cost vector saying
/// where the time plausibly went. Emitted by the serve loop as a JSON line
/// (`{"ts_ms":…,"slow_op":{…}}` on stderr) when `--slow-op-us` is armed.
struct SlowOpRecord {
  std::string method;
  uint64_t latency_us = 0;
  uint64_t trace_id = 0;
  /// Request start on the process steady clock (matches span timestamps).
  uint64_t ts_us = 0;
  CostCounters cost;
  /// The spans that finished on the serving thread during this request,
  /// completion order (bounded at ScopedSpanCollector::kMaxSpans).
  std::vector<TraceDump::Event> spans;

  /// One JSON object, single line, no trailing newline. Ids are 16-hex-digit
  /// strings like the trace dump's.
  std::string JsonFormat() const;
};

}  // namespace util
}  // namespace tcvs
