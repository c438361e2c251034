#include "storage/durable.h"

#include "rpc/protocol.h"
#include "util/cost.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace storage {

namespace {

constexpr char kSnapshotMagic[] = "tcvs-snapshot-v1";

std::string SnapshotPath(const std::string& dir) { return dir + "/snapshot.bin"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

// WAL record tags. Listings are read-only but still advance the protocol
// counter, so they must be logged for the recovered counter to match.
constexpr uint8_t kRecordTransact = 0;
constexpr uint8_t kRecordList = 1;

Bytes EncodeTransaction(uint32_t user, const std::vector<cvs::FileOp>& ops) {
  util::Writer w;
  w.PutU8(kRecordTransact);
  w.PutU32(user);
  w.PutU32(static_cast<uint32_t>(ops.size()));
  for (const auto& op : ops) rpc::SerializeFileOp(op, &w);
  return w.Take();
}

Bytes EncodeList(uint32_t user, const std::string& prefix) {
  util::Writer w;
  w.PutU8(kRecordList);
  w.PutU32(user);
  w.PutString(prefix);
  return w.Take();
}

// WAL apply is a trusted sink on the server's own durable state; the WAL is
// written by this process, so its records are local-origin, not tainted.
Status ReplayRecord(const Bytes& record, cvs::UntrustedServer* server) {
  util::Reader r(record);
  TCVS_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  TCVS_ASSIGN_OR_RETURN(uint32_t user, r.GetU32());
  switch (tag) {
    case kRecordTransact: {
      TCVS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
      std::vector<cvs::FileOp> ops;
      for (uint32_t i = 0; i < n; ++i) {
        TCVS_ASSIGN_OR_RETURN(cvs::FileOp op, rpc::DeserializeFileOp(&r));
        ops.push_back(std::move(op));
      }
      return server->Transact(user, ops).status();
    }
    case kRecordList: {
      TCVS_ASSIGN_OR_RETURN(std::string prefix, r.GetString());
      return server->List(user, prefix).status();
    }
    default:
      return Status::Corruption("unknown WAL record tag");
  }
}

Bytes EncodeSnapshot(const cvs::UntrustedServer& server) {
  util::Writer w;
  w.PutString(kSnapshotMagic);
  w.PutU64(server.ctr());
  w.PutU32(server.creator());
  w.PutBytes(server.tree().Serialize());
  const crypto::TransparencyLog& log = server.log();
  w.PutU64(log.size());
  for (uint64_t i = 0; i < log.size(); ++i) w.PutRaw(log.leaf_hash(i));
  return w.Take();
}

}  // namespace

Result<std::unique_ptr<DurableServer>> DurableServer::Open(
    const std::string& dir, mtree::TreeParams params, DurableOptions options) {
  // 1. Base state: the snapshot if one exists, else an empty repository.
  std::unique_ptr<cvs::UntrustedServer> server;
  auto snapshot_or = ReadFileBytes(SnapshotPath(dir));
  if (snapshot_or.ok()) {
    util::Reader r(*snapshot_or);
    TCVS_ASSIGN_OR_RETURN(std::string magic, r.GetString());
    if (magic != kSnapshotMagic) {
      return Status::Corruption("bad snapshot magic in " + dir);
    }
    TCVS_ASSIGN_OR_RETURN(uint64_t ctr, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(uint32_t creator, r.GetU32());
    TCVS_ASSIGN_OR_RETURN(Bytes tree_bytes, r.GetBytes());
    TCVS_ASSIGN_OR_RETURN(mtree::MerkleBTree tree,
                          mtree::MerkleBTree::Deserialize(tree_bytes, params));
    TCVS_ASSIGN_OR_RETURN(uint64_t n_leaves, r.GetU64());
    std::vector<crypto::Digest> leaves;
    for (uint64_t i = 0; i < n_leaves; ++i) {
      TCVS_ASSIGN_OR_RETURN(crypto::Digest leaf, r.GetRaw(crypto::kDigestSize));
      leaves.push_back(std::move(leaf));
    }
    server = std::make_unique<cvs::UntrustedServer>(std::move(tree), ctr,
                                                    creator, leaves);
  } else if (snapshot_or.status().IsNotFound()) {
    server = std::make_unique<cvs::UntrustedServer>(params);
  } else {
    return snapshot_or.status();
  }

  // 2. Replay the WAL's longest valid prefix on top.
  bool truncated = false;
  TCVS_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                        ReadWal(WalPath(dir), &truncated));
  {
    TCVS_SPAN("storage.recovery.replay");
    for (const auto& record : records) {
      TCVS_RETURN_NOT_OK(ReplayRecord(record, server.get()));
    }
  }
  static util::Counter* const recoveries =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.recovery.opens_total");
  recoveries->Increment();
  if (truncated) {
    // Drop the torn tail so future appends start from a clean prefix: fold
    // the replayed state into a snapshot and reset the log.
    Bytes snapshot = EncodeSnapshot(*server);
    TCVS_RETURN_NOT_OK(AtomicWriteFile(SnapshotPath(dir), snapshot));
    TCVS_RETURN_NOT_OK(TruncateFile(WalPath(dir)));
    records.clear();
  }

  TCVS_ASSIGN_OR_RETURN(WalWriter wal,
                        WalWriter::Open(WalPath(dir), options.fsync));
  wal.set_emulated_sync_delay_us(options.emulated_sync_delay_us);
  return std::unique_ptr<DurableServer>(
      new DurableServer(dir, options, std::move(server), std::move(wal),
                        records.size()));
}

Result<uint64_t> DurableServer::StageRecord(const Bytes& record) {
  util::MutexLock lock(&mu_);
  Status st = wal_.AppendNoFlush(record);
  wal_ok_.store(st.ok(), std::memory_order_relaxed);
  TCVS_RETURN_NOT_OK(st);
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->wal_appends++;
  }
  ++wal_records_;
  const uint64_t seq = appended_seq_.load(std::memory_order_relaxed) + 1;
  appended_seq_.store(seq, std::memory_order_release);
  return seq;
}

Status DurableServer::WaitDurable(uint64_t seq) {
  // With fsync off a flush is a page-cache fflush: work, not a durability
  // wait, so it stays out of the fsync layer.
  util::CostCounters* cost = util::CurrentCostCounters();
  if (cost == nullptr || !options_.fsync) return WaitDurableImpl(seq);
  const uint64_t start_us = util::MonotonicMicros();
  Status st = WaitDurableImpl(seq);
  cost->wal_fsync_wait_us += util::MonotonicMicros() - start_us;
  return st;
}

Status DurableServer::WaitDurableImpl(uint64_t seq) {
  static util::Counter* const flushes =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.wal.group_commit.flushes_total");
  static util::LatencyHistogram* const batch_size =
      util::MetricsRegistry::Instance().GetLatency(
          "storage.wal.group_commit.batch_size");

  gc_mu_.Lock();
  for (;;) {
    if (gc_durable_seq_ >= seq) {
      // Resolved. Failed seqs carry their covering flush's error; each
      // entry is consumed exactly once, by the waiter that owns the seq.
      Status st = Status::OK();
      auto it = gc_failed_.find(seq);
      if (it != gc_failed_.end()) {
        st = it->second;
        gc_failed_.erase(it);
      }
      gc_mu_.Unlock();
      return st;
    }
    if (!gc_leader_active_) {
      // Become the flush leader. With other transactions in flight, hold
      // the batching window open so their records join this flush; alone,
      // flush immediately — a sequential workload never pays the window.
      gc_leader_active_ = true;
      // The window only pays off when a flush costs a device sync: with
      // fsync off a flush is a page-cache fflush, so waiting would add
      // latency with nothing to amortize — ignore the window there.
      if (options_.fsync && options_.group_commit_window_us > 0 &&
          inflight_.load(std::memory_order_relaxed) > 1) {
        gc_cv_.WaitForUs(&gc_mu_, options_.group_commit_window_us);
      }
      gc_mu_.Unlock();

      uint64_t flush_to = 0;
      Status st;
      {
        // One Flush covers every record staged so far: fflush pushes the
        // whole stdio buffer, and (in sync mode) one fdatasync makes the
        // batch durable.
        util::MutexLock wal_lock(&mu_);
        flush_to = appended_seq_.load(std::memory_order_relaxed);
        st = wal_.Flush();
      }

      wal_ok_.store(st.ok(), std::memory_order_relaxed);

      gc_mu_.Lock();
      gc_leader_active_ = false;
      if (flush_to > gc_durable_seq_) {
        flushes->Increment();
        batch_size->Record(flush_to - gc_durable_seq_);
        if (!st.ok()) {
          for (uint64_t s = gc_durable_seq_ + 1; s <= flush_to; ++s) {
            gc_failed_[s] = st;
          }
        }
        gc_durable_seq_ = flush_to;
      }
      gc_cv_.SignalAll();
      continue;  // Loop around to resolve our own seq.
    }
    gc_cv_.Wait(&gc_mu_);
  }
}

void DurableServer::SkipApplyTurn(uint64_t seq) {
  util::MutexLock lock(&mu_);
  while (apply_next_seq_ != seq) apply_cv_.Wait(&mu_);
  ++apply_next_seq_;
  apply_cv_.SignalAll();
}

Result<util::Tainted<cvs::ServerReply>> DurableServer::Transact(
    uint32_t user, const std::vector<cvs::FileOp>& ops) {
  // Log, make durable, then apply: a reply only exists once its
  // transaction is durable, so recovery can never lose an acknowledged
  // state transition. Staging is serialized under mu_ and the apply runs
  // strictly in staging order, so the log order IS the apply order, which
  // recovery replay depends on; between the two, the group-commit
  // coordinator amortizes one flush over every concurrently staged record.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  auto done = [this] { inflight_.fetch_sub(1, std::memory_order_relaxed); };
  auto seq = StageRecord(EncodeTransaction(user, ops));
  if (!seq.ok()) {
    done();
    return seq.status();
  }
  Status durable = WaitDurable(*seq);
  if (!durable.ok()) {
    // The record never became durable: fail WITHOUT applying (the reply
    // must not exist), but still pass the apply turn on.
    SkipApplyTurn(*seq);
    done();
    return durable;
  }
  auto reply = ApplyInOrder(*seq, [&] { return server_->Transact(user, ops); });
  done();
  return reply;
}

Result<util::Tainted<cvs::ListReply>> DurableServer::List(
    uint32_t user, const std::string& prefix) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  auto done = [this] { inflight_.fetch_sub(1, std::memory_order_relaxed); };
  auto seq = StageRecord(EncodeList(user, prefix));
  if (!seq.ok()) {
    done();
    return seq.status();
  }
  Status durable = WaitDurable(*seq);
  if (!durable.ok()) {
    SkipApplyTurn(*seq);
    done();
    return durable;
  }
  auto reply = ApplyInOrder(*seq, [&] { return server_->List(user, prefix); });
  done();
  return reply;
}

Result<util::Tainted<cvs::LogCheckpointReply>> DurableServer::LogCheckpoint(
    uint64_t old_size) {
  util::MutexLock lock(&mu_);
  return server_->LogCheckpoint(old_size);
}

mtree::TreeParams DurableServer::tree_params() const {
  util::MutexLock lock(&mu_);
  return server_->tree_params();
}

uint64_t DurableServer::wal_records() const {
  util::MutexLock lock(&mu_);
  return wal_records_;
}

Status DurableServer::Checkpoint() {
  TCVS_SPAN("storage.checkpoint");
  static util::Counter* const checkpoints =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.checkpoints_total");
  checkpoints->Increment();
  util::MutexLock lock(&mu_);
  // Drain in-flight group commits: every staged record must have taken its
  // apply turn (or skipped it) before the snapshot is cut and the WAL
  // truncated, otherwise truncation could discard a record that was staged
  // but not yet folded into the snapshot state. Applies need mu_, which
  // Wait releases, so the drain makes progress.
  while (apply_next_seq_ <= appended_seq_.load(std::memory_order_acquire)) {
    apply_cv_.Wait(&mu_);
  }
  TCVS_RETURN_NOT_OK(AtomicWriteFile(SnapshotPath(dir_),
                                     EncodeSnapshot(*server_)));
  wal_.Close();
  TCVS_RETURN_NOT_OK(TruncateFile(WalPath(dir_)));
  TCVS_ASSIGN_OR_RETURN(wal_, WalWriter::Open(WalPath(dir_), options_.fsync));
  wal_.set_emulated_sync_delay_us(options_.emulated_sync_delay_us);
  wal_records_ = 0;
  return Status::OK();
}

}  // namespace storage
}  // namespace tcvs
