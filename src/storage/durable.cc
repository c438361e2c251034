#include "storage/durable.h"

#include <algorithm>

#include "rpc/protocol.h"
#include "util/cost.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace storage {

namespace {

constexpr char kSnapshotMagic[] = "tcvs-snapshot-v2";

std::string SnapshotPath(const std::string& dir) { return dir + "/snapshot.bin"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

// WAL record tags. Listings are read-only but still advance the protocol
// counter, so they must be logged for the recovered counter to match. A
// generation record is a WAL's first record, and only there.
constexpr uint8_t kRecordTransact = 0;
constexpr uint8_t kRecordList = 1;
constexpr uint8_t kRecordGeneration = 2;

Bytes EncodeGeneration(uint64_t generation) {
  util::Writer w;
  w.PutU8(kRecordGeneration);
  w.PutU64(generation);
  return w.Take();
}

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

// Streams the snapshot of `server` into `path`: the header and log leaves
// in chunks, then the tree through MerkleBTree::SerializeTo, so memory
// stays at one chunk whatever the size of the repository.
Status WriteSnapshot(const std::string& path, const cvs::UntrustedServer& server,
                     uint64_t generation, uint64_t wal_skip) {
  return AtomicWriteFile(path, [&](const ChunkSink& sink) {
    util::Writer w;
    w.PutString(kSnapshotMagic);
    w.PutU64(generation);
    w.PutU64(wal_skip);
    w.PutU64(server.ctr());
    w.PutU32(server.creator());
    const crypto::TransparencyLog& log = server.log();
    w.PutU64(log.size());
    for (uint64_t i = 0; i < log.size(); ++i) {
      w.PutRaw(log.leaf_hash(i));
      if (w.buffer().size() >= mtree::MerkleBTree::kSerializeChunkBytes) {
        TCVS_RETURN_NOT_OK(sink(w.buffer()));
        w.Clear();
      }
    }
    TCVS_RETURN_NOT_OK(sink(w.buffer()));
    return server.tree().SerializeTo(sink);
  });
}

// Charges the time since `start_us` to the current request's queue delay:
// time spent behind other requests, not doing this one's work.
void ChargeQueue(uint64_t start_us) {
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->queue_us += util::MonotonicMicros() - start_us;
  }
}

// One flush covering `batch` records.
void CountFlush(uint64_t batch) {
  static util::Counter* const flushes =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.wal.group_commit.flushes_total");
  static util::LatencyHistogram* const batch_size =
      util::MetricsRegistry::Instance().GetLatency(
          "storage.wal.group_commit.batch_size");
  flushes->Increment();
  batch_size->Record(batch);
}

}  // namespace

Result<uint64_t> DecodeWalGeneration(const Bytes& first_record) {
  util::Reader r(first_record);
  TCVS_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  if (tag != kRecordGeneration) {
    return Status::Corruption("WAL does not start with a generation record");
  }
  return r.GetU64();
}

Result<std::unique_ptr<DurableServer>> DurableServer::Open(
    const std::string& dir, mtree::TreeParams params, DurableOptions options) {
  // 1. Base state: the snapshot if one exists, else an empty repository
  //    (generation 0).
  std::unique_ptr<cvs::UntrustedServer> server;
  uint64_t generation = 0;
  uint64_t wal_skip = 0;
  auto snapshot_or = ReadFileBytes(SnapshotPath(dir));
  if (snapshot_or.ok()) {
    Bytes& snapshot = *snapshot_or;
    util::Reader r(snapshot);
    TCVS_ASSIGN_OR_RETURN(std::string magic, r.GetString());
    if (magic != kSnapshotMagic) {
      return Status::Corruption("bad snapshot magic in " + dir);
    }
    TCVS_ASSIGN_OR_RETURN(generation, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(wal_skip, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(uint64_t ctr, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(uint32_t creator, r.GetU32());
    TCVS_ASSIGN_OR_RETURN(uint64_t n_leaves, r.GetU64());
    std::vector<crypto::Digest> leaves;
    for (uint64_t i = 0; i < n_leaves; ++i) {
      TCVS_ASSIGN_OR_RETURN(crypto::Digest leaf, r.GetRaw(crypto::kDigestSize));
      leaves.push_back(std::move(leaf));
    }
    // The tree fills the rest of the file.
    snapshot.erase(snapshot.begin(),
                   snapshot.begin() + (snapshot.size() - r.remaining()));
    TCVS_ASSIGN_OR_RETURN(mtree::MerkleBTree tree,
                          mtree::MerkleBTree::Deserialize(snapshot, params));
    server = std::make_unique<cvs::UntrustedServer>(std::move(tree), ctr,
                                                    creator, leaves);
  } else if (snapshot_or.status().IsNotFound()) {
    server = std::make_unique<cvs::UntrustedServer>(params);
  } else {
    return snapshot_or.status();
  }

  // 2. Replay the WAL's longest valid prefix on top: all of it when its
  //    generation is the snapshot's; past the first `wal_skip` records when
  //    it is one older (the checkpoint that wrote the snapshot never
  //    truncated it, so the snapshot already holds those). An older log can
  //    hold fewer than `wal_skip` records (a tail that never reached the
  //    device, or one behind a tear); the snapshot holds all of them.
  bool truncated = false;
  TCVS_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                        ReadWal(WalPath(dir), &truncated));
  uint64_t wal_generation = generation;
  size_t first = 0;
  if (!records.empty()) {
    TCVS_ASSIGN_OR_RETURN(wal_generation, DecodeWalGeneration(records[0]));
    first = 1;
    if (wal_generation + 1 == generation) {
      first += std::min<uint64_t>(wal_skip, records.size() - 1);
    } else if (wal_generation != generation) {
      return Status::Corruption(
          "WAL generation " + std::to_string(wal_generation) +
          " does not follow snapshot generation " + std::to_string(generation) +
          " in " + dir);
    }
  }
  {
    TCVS_SPAN("storage.recovery.replay");
    for (size_t i = first; i < records.size(); ++i) {
      TCVS_RETURN_NOT_OK(ReplayRecord(records[i], server.get()));
    }
  }
  static util::Counter* const recoveries =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.recovery.opens_total");
  recoveries->Increment();

  TCVS_ASSIGN_OR_RETURN(WalWriter wal,
                        WalWriter::Open(WalPath(dir), options.fsync));
  wal.set_emulated_sync_delay_us(options.emulated_sync_delay_us);
  std::unique_ptr<DurableServer> durable(
      new DurableServer(dir, options, std::move(server), std::move(wal)));
  util::MutexLock lock(&durable->mu_);
  durable->wal_generation_ = wal_generation;
  durable->wal_records_ = records.empty() ? 0 : records.size() - 1;
  for (const Bytes& record : records) durable->wal_bytes_ += 8 + record.size();
  if (!records.empty() && !truncated && wal_generation == generation) {
    return durable;  // A clean log of the snapshot's generation: append on.
  }
  if (first == records.size()) {
    // Nothing beyond the snapshot (a fresh directory, an empty or fully
    // skipped log, a torn first record): start the log at its generation.
    TCVS_RETURN_NOT_OK(durable->ResetWal(generation));
  } else {
    // Drop a torn tail, or finish an interrupted checkpoint, by folding the
    // replayed state into a snapshot and resetting the log.
    TCVS_RETURN_NOT_OK(durable->WriteCheckpoint(wal_generation + 1));
  }
  return durable;
}

Result<uint64_t> DurableServer::StageRecord(const Bytes& record,
                                            bool* checkpoint) {
  const uint64_t wait_start_us = util::MonotonicMicros();
  util::MutexLock lock(&mu_);
  return StageLocked(record, wait_start_us, checkpoint);
}

Result<uint64_t> DurableServer::StageLocked(const Bytes& record,
                                            uint64_t wait_start_us,
                                            bool* checkpoint) {
  while (checkpointing_) apply_cv_.Wait(&mu_);
  ChargeQueue(wait_start_us);
  Status st = wal_.AppendNoFlush(record);
  wal_ok_.store(st.ok(), std::memory_order_relaxed);
  TCVS_RETURN_NOT_OK(st);
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->wal_appends++;
  }
  ++wal_records_;
  wal_bytes_ += 8 + record.size();
  if (wal_bytes_ >= checkpoint_at_) {
    // Close the gate behind this record: the WAL ends at most one record
    // past its bound.
    checkpointing_ = true;
    *checkpoint = true;
  }
  return ++appended_seq_;
}

Status DurableServer::WaitDurable(uint64_t seq) {
  util::CostCounters* cost = util::CurrentCostCounters();
  if (cost == nullptr) return WaitDurableImpl(seq);
  const uint64_t start_us = util::MonotonicMicros();
  Status st = WaitDurableImpl(seq);
  cost->wal_fsync_wait_us += util::MonotonicMicros() - start_us;
  return st;
}

Status DurableServer::WaitDurableImpl(uint64_t seq) {
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
      if (options_.group_commit_window_us > 0 &&
          inflight_.load(std::memory_order_relaxed) > 1) {
        gc_cv_.WaitForUs(&gc_mu_, options_.group_commit_window_us);
      }
      gc_mu_.Unlock();

      // One flush covers every record staged so far: the stdio buffer is
      // pushed under mu_, then (in sync mode) one fdatasync outside it
      // makes the batch durable while other transactions stage and apply.
      // Nothing closes or truncates the log meanwhile: a checkpoint first
      // waits for every staged record, this one included, to apply.
      uint64_t flush_to = 0;
      WalSync sync;
      Status st;
      {
        util::MutexLock wal_lock(&mu_);
        flush_to = appended_seq_;
        st = wal_.Push();
        sync = wal_.sync_handle();
      }
      if (st.ok()) st = sync.Run();

      wal_ok_.store(st.ok(), std::memory_order_relaxed);

      gc_mu_.Lock();
      gc_leader_active_ = false;
      if (flush_to > gc_durable_seq_) {
        CountFlush(flush_to - gc_durable_seq_);
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

template <typename Fn>
void DurableServer::TakeApplyTurn(uint64_t seq, Fn apply) {
  const uint64_t wait_start_us = util::MonotonicMicros();
  util::MutexLock lock(&mu_);
  while (apply_next_seq_ != seq) apply_cv_.Wait(&mu_);
  ChargeQueue(wait_start_us);
  apply();
  ++apply_next_seq_;
  apply_cv_.SignalAll();
}

template <typename Fn>
auto DurableServer::Execute(const Bytes& record, Fn apply)
    -> decltype(apply()) {
  // Log, make durable, then apply: a reply only exists once its
  // transaction is durable, so recovery can never lose an acknowledged
  // state transition, and the log order IS the apply order, which recovery
  // replay depends on.
  if (!options_.fsync) {
    // A flush is a page-cache push with no device sync to overlap, so the
    // record is staged, pushed and applied in one turn of mu_.
    const uint64_t wait_start_us = util::MonotonicMicros();
    util::MutexLock lock(&mu_);
    bool checkpoint = false;
    auto seq = StageLocked(record, wait_start_us, &checkpoint);
    if (!seq.ok()) return seq.status();
    Status pushed = wal_.Push();
    wal_ok_.store(pushed.ok(), std::memory_order_relaxed);
    CountFlush(1);
    decltype(apply()) reply = Status::Internal("transaction never applied");
    if (pushed.ok()) {
      reply = apply();
    } else {
      reply = pushed;  // Not applied: the reply must not exist.
    }
    ++apply_next_seq_;
    if (checkpoint) RunTriggeredCheckpoint();
    return reply;
  }
  // With fsync on, staging is serialized under mu_ and the apply runs
  // strictly in staging order; between the two, the group-commit
  // coordinator amortizes one flush over every concurrently staged record,
  // and its fdatasync runs outside mu_.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  bool checkpoint = false;
  decltype(apply()) reply = Status::Internal("transaction never applied");
  auto seq = StageRecord(record, &checkpoint);
  if (!seq.ok()) {
    reply = seq.status();
  } else if (Status durable = WaitDurable(*seq); !durable.ok()) {
    // The record never became durable: fail WITHOUT applying (the reply
    // must not exist), but still pass the apply turn on.
    TakeApplyTurn(*seq, [] {});
    reply = durable;
  } else {
    TakeApplyTurn(*seq, [&] { reply = apply(); });
  }
  if (checkpoint) {
    util::MutexLock lock(&mu_);
    RunTriggeredCheckpoint();
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  return reply;
}

void DurableServer::RunTriggeredCheckpoint() {
  // The triggering record closed the staging gate. Its transaction is
  // durable and applied whatever the checkpoint's fate, so a failure is
  // counted and logged, never returned.
  if (Status st = CheckpointGated(); !st.ok()) {
    TCVS_LOG(Warn) << "online checkpoint failed: " << st.ToString();
  }
}

Result<util::Tainted<cvs::ServerReply>> DurableServer::Transact(
    uint32_t user, const std::vector<cvs::FileOp>& ops) {
  return Execute(EncodeTransaction(user, ops), [&] {
    return server_->Transact(user, ops);
  });
}

Result<util::Tainted<cvs::ListReply>> DurableServer::List(
    uint32_t user, const std::string& prefix) {
  return Execute(EncodeList(user, prefix), [&] {
    return server_->List(user, prefix);
  });
}

Result<util::Tainted<cvs::LogCheckpointReply>> DurableServer::LogCheckpoint(
    uint64_t old_size) {
  util::MutexLock lock(&mu_);
  return server_->LogCheckpoint(old_size);
}

uint64_t DurableServer::wal_records() const {
  util::MutexLock lock(&mu_);
  return wal_records_;
}

uint64_t DurableServer::generation() const {
  util::MutexLock lock(&mu_);
  return wal_generation_;
}

Status DurableServer::Checkpoint() {
  util::MutexLock lock(&mu_);
  while (checkpointing_) apply_cv_.Wait(&mu_);
  checkpointing_ = true;
  return CheckpointGated();
}

Status DurableServer::CheckpointGated() {
  // Drain: every record staged before the gate closed takes its apply turn
  // (or skips it) before the snapshot is cut, so the snapshot holds every
  // record the truncation discards, and no flush leader is still syncing
  // the log. Applies need mu_, which Wait releases, so the drain makes
  // progress.
  static util::Counter* const failures =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.checkpoint.failures_total");
  while (apply_next_seq_ <= appended_seq_) apply_cv_.Wait(&mu_);
  Status st = WriteCheckpoint(wal_generation_ + 1);
  if (!st.ok()) failures->Increment();
  // After a failure, try again one bound later rather than on every append.
  checkpoint_at_ = st.ok() ? kWalCheckpointBytes
                           : wal_bytes_ + kWalCheckpointBytes;
  checkpointing_ = false;
  apply_cv_.SignalAll();
  return st;
}

Status DurableServer::WriteCheckpoint(uint64_t generation) {
  TCVS_SPAN("storage.checkpoint");
  static util::Counter* const checkpoints =
      util::MetricsRegistry::Instance().GetCounter(
          "storage.checkpoints_total");
  checkpoints->Increment();
  // The rename publishes a snapshot that skips this WAL's records; until
  // the truncate below lands, recovery skips them, and a failed truncate
  // leaves a WAL that is still correct to append to.
  TCVS_RETURN_NOT_OK(WriteSnapshot(SnapshotPath(dir_), *server_, generation,
                                   wal_records_));
  return ResetWal(generation);
}

Status DurableServer::ResetWal(uint64_t generation) {
  const Bytes header = EncodeGeneration(generation);
  if (Status st = wal_.Truncate(header); !st.ok()) {
    // A failed ftruncate leaves the log untouched and appendable; only a
    // log emptied without its generation record stops appends.
    wal_ok_.store(wal_.is_open(), std::memory_order_relaxed);
    return st;
  }
  wal_generation_ = generation;
  wal_records_ = 0;
  wal_bytes_ = 8 + header.size();
  return Status::OK();
}

}  // namespace storage
}  // namespace tcvs
