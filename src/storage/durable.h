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

/// WAL size at which the server checkpoints itself while serving: the
/// request whose record carries wal.log past it writes a fresh snapshot and
/// truncates the log after its own apply, so the log never exceeds this
/// bound by more than one record.
inline constexpr uint64_t kWalCheckpointBytes = uint64_t{256} << 20;

/// The checkpoint generation a WAL starts with, decoded from its first
/// record (tcvs_fsck prints it).
Result<uint64_t> DecodeWalGeneration(const Bytes& first_record);

/// \brief Durable wrapper around the untrusted repository server: snapshot +
/// write-ahead log in a data directory, so `tcvsd --data-dir` survives
/// restarts with the same root digest (clients verifying against their
/// registers never notice the restart).
///
/// Layout:
///   <dir>/snapshot.bin — magic, generation G, skip N, ctr, creator, the
///                        transparency-log leaves, MerkleBTree::Serialize()
///   <dir>/wal.log      — CRC-framed records: a generation record, then one
///                        record per transaction since the snapshot
///
/// **Write path.** Every Transact/List stages its request in the WAL buffer
/// under `storage.durable.apply` and takes a commit sequence number; the
/// group-commit coordinator makes it durable (leader/follower: the first
/// waiter pushes the stdio buffer under the lock and runs ONE fdatasync for
/// every staged record outside it, so other transactions stage and apply
/// during the device sync); then it applies to the in-memory server in
/// strict sequence order. The log order IS the apply order, so replay is
/// exactly-once, and a reply never exists before its record is durable.
/// With fsync off a flush is a page-cache push with no device sync to
/// overlap, so a request stages, pushes and applies in one turn of the
/// lock, the coordinator idle. Every method is thread-safe; rpc::Serve
/// calls them concurrently.
///
/// **Checkpoints.** A checkpoint streams the state into a fresh snapshot of
/// generation G = WAL generation + 1 that says it already holds the first N
/// records of the current WAL, then truncates the WAL and starts it with a
/// generation-G record. It runs with staging gated and every staged record
/// applied, so no flush is in progress: online when the WAL passes
/// kWalCheckpointBytes, on Checkpoint() (tcvsd at shutdown), and at Open
/// when the WAL had a torn tail. Recovery loads the snapshot and replays a
/// generation-G WAL whole, or skips the first N records of a generation
/// G − 1 WAL: a crash between the snapshot rename and the truncate (or a
/// failed truncate) never replays a transaction twice. A torn tail from a
/// crash is dropped, which is safe: its reply can never have reached a
/// client.
class DurableServer : public cvs::ServerApi {
 public:
  /// Opens (and recovers) a data directory. The directory must exist.
  static Result<std::unique_ptr<DurableServer>> Open(
      const std::string& dir, mtree::TreeParams params,
      DurableOptions options = {});

  /// \name ServerApi — thread-safe.
  /// @{
  Result<util::Tainted<cvs::ServerReply>> Transact(uint32_t user,
                                    const std::vector<cvs::FileOp>& ops) override;
  Result<util::Tainted<cvs::ListReply>> List(uint32_t user,
                                             const std::string& prefix) override;
  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override;
  mtree::TreeParams tree_params() const override { return params_; }
  /// @}

  /// Writes a fresh snapshot and truncates the WAL. Gates staging and waits
  /// for every staged record to apply first, so the snapshot contains every
  /// record the truncation discards. On error the WAL keeps taking appends
  /// (unless the truncate emptied it and writing its generation record
  /// failed; then appends fail and wal_ok() reads false).
  Status Checkpoint();

  /// Number of transaction records in the WAL since the last checkpoint.
  uint64_t wal_records() const;

  /// The checkpoint generation of the WAL in use.
  uint64_t generation() const;

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
                std::unique_ptr<cvs::UntrustedServer> server, WalWriter wal)
      : dir_(std::move(dir)),
        options_(options),
        params_(server->tree_params()),
        server_(std::move(server)),
        wal_(std::move(wal)) {}

  /// Stages `record` in the WAL buffer under mu_ (waiting while a
  /// checkpoint gates staging) and returns its commit sequence number
  /// (1-based, dense: [1, appended_seq_] is exactly the staged log). Sets
  /// *checkpoint when this record carried the WAL past its bound: the
  /// gate is now closed, and the caller must run CheckpointGated after its
  /// apply turn.
  Result<uint64_t> StageRecord(const Bytes& record, bool* checkpoint);
  /// StageRecord with mu_ held; the wait since `wait_start_us` is charged
  /// to the request's queue delay.
  Result<uint64_t> StageLocked(const Bytes& record, uint64_t wait_start_us,
                               bool* checkpoint) TCVS_REQUIRES(mu_);

  /// Blocks until the record with sequence number `seq` is durable (its
  /// covering Flush returned OK), electing this thread flush leader when
  /// none is active. Returns the covering flush's error otherwise.
  /// WaitDurable is a thin wrapper charging the blocked time to the ambient
  /// per-request cost accumulator (`wal_fsync_wait_us`). Used with fsync
  /// on only.
  Status WaitDurable(uint64_t seq);
  Status WaitDurableImpl(uint64_t seq);

  /// One logged request end to end: stage, wait durable, apply in order
  /// (`apply` touches server_ only), then run the checkpoint this record
  /// triggered, if any. With fsync off, all of it in one turn of mu_.
  template <typename Fn>
  auto Execute(const Bytes& record, Fn apply) -> decltype(apply());
  /// The checkpoint a staged record triggered, after that record's apply.
  void RunTriggeredCheckpoint() TCVS_REQUIRES(mu_);

  /// Waits for `seq`'s turn in the apply order, runs `apply` unless it is
  /// null (a failed record still passes its turn on), and passes the turn
  /// on. The wait for the turn is charged to the request's queue delay.
  template <typename Fn>
  void TakeApplyTurn(uint64_t seq, Fn apply);

  /// The checkpoint itself, with staging gated by the caller: drains the
  /// apply order, writes the snapshot, truncates the WAL, reopens the gate.
  Status CheckpointGated() TCVS_REQUIRES(mu_);
  /// Snapshot of generation `generation` + WAL truncate (no gating).
  Status WriteCheckpoint(uint64_t generation) TCVS_REQUIRES(mu_);
  /// Truncates the WAL and starts it with a `generation` record.
  Status ResetWal(uint64_t generation) TCVS_REQUIRES(mu_);

  std::string dir_;
  DurableOptions options_;
  /// The tree geometry; immutable, so read without a lock.
  const mtree::TreeParams params_;
  /// Serializes WAL staging, the apply order, and checkpoints. Leaf lock:
  /// nothing else is acquired while held (gc_mu_ is released before the
  /// flush leader takes mu_).
  mutable util::Mutex mu_{"storage.durable.apply"};
  /// Set once at construction, never reassigned; the pointee is mutated
  /// only under mu_ (UntrustedServer itself is single-threaded).
  std::unique_ptr<cvs::UntrustedServer> server_ TCVS_PT_GUARDED_BY(mu_);
  WalWriter wal_ TCVS_GUARDED_BY(mu_);
  uint64_t wal_generation_ TCVS_GUARDED_BY(mu_) = 0;
  uint64_t wal_records_ TCVS_GUARDED_BY(mu_) = 0;
  uint64_t wal_bytes_ TCVS_GUARDED_BY(mu_) = 0;
  /// wal_bytes_ at which the next online checkpoint runs: the bound, or
  /// one more bound past the size a failed checkpoint left.
  uint64_t checkpoint_at_ TCVS_GUARDED_BY(mu_) = kWalCheckpointBytes;
  /// While true, StageRecord waits on apply_cv_: a checkpoint is due or
  /// running.
  bool checkpointing_ TCVS_GUARDED_BY(mu_) = false;

  /// Highest staged commit sequence number.
  uint64_t appended_seq_ TCVS_GUARDED_BY(mu_) = 0;
  /// Next sequence number allowed to apply.
  uint64_t apply_next_seq_ TCVS_GUARDED_BY(mu_) = 1;
  /// Signalled whenever the apply turn advances or the staging gate opens.
  util::CondVar apply_cv_;

  /// Transactions currently inside Transact/List — the leader skips the
  /// batching window when it is alone (nothing to wait for).
  std::atomic<uint64_t> inflight_{0};

  /// Health flag for wal_ok(); written by StageRecord, the flush leader and
  /// ResetWal.
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
