#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "cvs/trusted.h"
#include "storage/wal.h"
#include "util/mutex.h"

namespace tcvs {
namespace storage {

/// \brief Durable wrapper around the untrusted repository server: snapshot +
/// write-ahead log in a data directory, so `tcvsd --data-dir` survives
/// restarts with the same root digest (clients verifying against their
/// registers never notice the restart).
///
/// Layout:
///   <dir>/snapshot.bin  — magic, ctr, creator, MerkleBTree::Serialize()
///   <dir>/wal.log       — CRC-framed transaction records since the snapshot
///
/// Every Transact appends the request to the WAL before execution (the
/// transaction is deterministic, so replay reconstructs the exact state).
/// Checkpoint() folds the WAL into a fresh snapshot. Recovery loads the
/// snapshot (if any) and replays the WAL's longest valid prefix — a torn
/// tail from a crash is dropped, which is safe: the corresponding reply can
/// never have reached a client.
/// \brief Durability knobs for DurableServer.
struct DurableOptions {
  /// fdatasync every WAL flush: acknowledged transactions survive an OS
  /// crash/power loss, not just a process crash. Costs a device round trip
  /// per flush; tcvsd enables it by default (--no-fsync opts out).
  bool fsync = false;
  /// Group-commit window: after appending, the flush leader waits up to
  /// this long for concurrent transactions to stage their records, then
  /// issues ONE Flush (one fdatasync in sync mode) covering the whole
  /// batch. 0 = flush immediately (the window is skipped anyway whenever
  /// no other transaction is in flight, so sequential callers never pay
  /// it). Meaningful mainly with fsync on — without it a flush is just an
  /// fflush and there is little to amortize.
  uint32_t group_commit_window_us = 0;
  /// Emulated device-sync latency added to every fdatasync. BENCH/TEST
  /// knob only (see WalWriter::set_emulated_sync_delay_us) — restores a
  /// realistic device round trip on hosts whose write cache absorbs
  /// flushes, so group-commit amortization is measurable.
  uint32_t emulated_sync_delay_us = 0;
};

/// \brief Group commit (leader/follower): Transact stages its WAL record
/// under `mu_` (buffered, not yet flushed) and takes a commit sequence
/// number; the first waiter to reach the coordinator becomes the LEADER,
/// optionally waits `group_commit_window_us` for concurrent stragglers,
/// then issues one Flush covering every staged record. FOLLOWERS just wait
/// for `durable_seq` to pass their own number. Only after its record is
/// durable does a transaction apply to the in-memory server — in strict
/// sequence-number order, so the log order IS the apply order and recovery
/// replay stays exactly-once. A reply therefore still never exists before
/// its transaction is durable, exactly as in the serial-fsync design, but
/// N concurrent transactions cost one device round trip instead of N.
class DurableServer : public cvs::ServerApi {
 public:
  /// Opens (and recovers) a data directory. The directory must exist.
  static Result<std::unique_ptr<DurableServer>> Open(
      const std::string& dir, mtree::TreeParams params,
      DurableOptions options = {});

  /// \name ServerApi — thread-safe: records are staged and applied under
  /// the internal mutex and made durable through the group-commit
  /// coordinator, so the WAL prefix and the in-memory state can never
  /// interleave two callers' transactions.
  /// @{
  Result<util::Tainted<cvs::ServerReply>> Transact(uint32_t user,
                                    const std::vector<cvs::FileOp>& ops) override;
  Result<util::Tainted<cvs::ListReply>> List(uint32_t user,
                                             const std::string& prefix) override;
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override;
  mtree::TreeParams tree_params() const override;
  /// @}

  /// Writes a fresh snapshot and truncates the WAL. Waits for in-flight
  /// group commits to drain first, so the snapshot always contains every
  /// record the truncation is about to discard.
  Status Checkpoint();

  /// Number of WAL records accumulated since the last checkpoint.
  uint64_t wal_records() const;

  /// True while the most recent WAL append and flush both succeeded — the
  /// admin plane's /readyz probe. Flips false when the log stops taking
  /// writes (disk fault, injected WAL fault) and recovers with the next
  /// successful append/flush.
  bool wal_ok() const { return wal_ok_.load(std::memory_order_relaxed); }

  /// The wrapped in-memory server. The POINTER is safe to read anytime;
  /// DEREFERENCING it bypasses this class's lock, so callers must be in a
  /// single-threaded phase (startup, post-Serve shutdown, tests).
  cvs::UntrustedServer* server() { return server_.get(); }

 private:
  DurableServer(std::string dir, DurableOptions options,
                std::unique_ptr<cvs::UntrustedServer> server, WalWriter wal,
                uint64_t wal_records)
      : dir_(std::move(dir)),
        options_(options),
        server_(std::move(server)),
        wal_(std::move(wal)),
        wal_records_(wal_records) {}

  /// Stages `record` in the WAL buffer under mu_ and returns its commit
  /// sequence number (1-based, dense: every staged record gets the next
  /// number, so [1, appended_seq_] is exactly the staged log).
  Result<uint64_t> StageRecord(const Bytes& record);

  /// Blocks until the record with sequence number `seq` is durable (its
  /// covering Flush returned OK), electing this thread flush leader when
  /// none is active. Returns the covering flush's error otherwise.
  /// WaitDurable is a thin wrapper charging the blocked time to the ambient
  /// per-request cost accumulator (`wal_fsync_wait_us`) when fsync is on;
  /// with fsync off the flush counts as work.
  Status WaitDurable(uint64_t seq);
  Status WaitDurableImpl(uint64_t seq);

  /// Runs `apply` (which must touch server_ only) when `seq`'s turn in the
  /// apply order comes up, then passes the turn on. Called for FAILED
  /// sequence numbers too — with apply == nullptr — so the turn always
  /// advances.
  template <typename Fn>
  auto ApplyInOrder(uint64_t seq, Fn apply) {
    util::MutexLock lock(&mu_);
    while (apply_next_seq_ != seq) apply_cv_.Wait(&mu_);
    auto result = apply();
    ++apply_next_seq_;
    apply_cv_.SignalAll();
    return result;
  }
  void SkipApplyTurn(uint64_t seq);

  std::string dir_;
  DurableOptions options_;
  /// Serializes WAL staging + apply (and snapshotting) across the server's
  /// worker threads. Leaf lock: nothing else is acquired while held
  /// (gc_mu_ may be held when acquiring mu_, never the reverse).
  mutable util::Mutex mu_{"storage.durable.apply"};
  /// Set once at construction, never reassigned; the pointee is mutated
  /// only under mu_ (UntrustedServer itself is single-threaded).
  std::unique_ptr<cvs::UntrustedServer> server_ TCVS_PT_GUARDED_BY(mu_);
  WalWriter wal_ TCVS_GUARDED_BY(mu_);
  uint64_t wal_records_ TCVS_GUARDED_BY(mu_) = 0;

  /// Highest staged commit sequence number. Written under mu_ (staging is
  /// serialized); atomic so the flush leader can read it without mu_.
  std::atomic<uint64_t> appended_seq_{0};
  /// Next sequence number allowed to apply; guarded by mu_.
  uint64_t apply_next_seq_ TCVS_GUARDED_BY(mu_) = 1;
  util::CondVar apply_cv_;

  /// Transactions currently inside Transact/List — the leader skips the
  /// batching window when it is alone (nothing to wait for).
  std::atomic<uint64_t> inflight_{0};

  /// Health flag for wal_ok(); written by StageRecord and the flush leader.
  std::atomic<bool> wal_ok_{true};

  /// \name Group-commit coordinator state, guarded by gc_mu_.
  /// @{
  util::Mutex gc_mu_{"storage.wal.group_commit"};
  util::CondVar gc_cv_;
  bool gc_leader_active_ TCVS_GUARDED_BY(gc_mu_) = false;
  /// Every seq ≤ gc_durable_seq_ has had its covering flush complete.
  uint64_t gc_durable_seq_ TCVS_GUARDED_BY(gc_mu_) = 0;
  /// Per-seq flush failures; each entry is consumed (erased) by the one
  /// waiter owning that seq, so the map never grows beyond a failed batch.
  std::map<uint64_t, Status> gc_failed_ TCVS_GUARDED_BY(gc_mu_);
  /// @}
};

}  // namespace storage
}  // namespace tcvs
