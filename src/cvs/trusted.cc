#include "cvs/trusted.h"

#include <algorithm>

#include "util/audit.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace cvs {

namespace {

// Emits a typed audit event and returns the matching DeviationDetected
// status. The trace id is filled from the active span by Emit, so events
// raised while verifying a reply carry the trace of that exchange.
Status Deviation(util::AuditEventKind kind, uint32_t user, uint64_t ctr,
                 uint64_t gctr, std::string detail) {
  util::AuditEvent event(kind);
  event.user = user;
  event.ctr = ctr;
  event.gctr = gctr;
  event.detail = detail;
  util::AuditLog::Instance().Emit(std::move(event));
  return Status::DeviationDetected(std::move(detail));
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire structs
// ---------------------------------------------------------------------------

Bytes ServerReply::Serialize() const {
  util::Writer w;
  w.PutU8(applied ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (const auto& f : files) {
    w.PutU8(f.found ? 1 : 0);
    w.PutBytes(f.vo);
  }
  w.PutU64(ctr);
  w.PutU32(creator);
  return w.Take();
}

Result<util::Tainted<ServerReply>> ServerReply::Deserialize(const Bytes& data) {
  util::Reader r(data);
  ServerReply reply;
  TCVS_ASSIGN_OR_RETURN(uint8_t applied, r.GetU8());
  reply.applied = (applied != 0);
  TCVS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  if (n > 1u << 16) return Status::InvalidArgument("too many per-file replies");
  for (uint32_t i = 0; i < n; ++i) {
    PerFile f;
    TCVS_ASSIGN_OR_RETURN(uint8_t found, r.GetU8());
    f.found = (found != 0);
    TCVS_ASSIGN_OR_RETURN(f.vo, r.GetBytes());
    reply.files.push_back(std::move(f));
  }
  TCVS_ASSIGN_OR_RETURN(reply.ctr, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(reply.creator, r.GetU32());
  return util::Tainted<ServerReply>(std::move(reply));
}

Bytes ListReply::Serialize() const {
  util::Writer w;
  w.PutBytes(range_vo);
  w.PutU64(ctr);
  w.PutU32(creator);
  return w.Take();
}

Result<util::Tainted<ListReply>> ListReply::Deserialize(const Bytes& data) {
  util::Reader r(data);
  ListReply reply;
  TCVS_ASSIGN_OR_RETURN(reply.range_vo, r.GetBytes());
  TCVS_ASSIGN_OR_RETURN(reply.ctr, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(reply.creator, r.GetU32());
  return util::Tainted<ListReply>(std::move(reply));
}

Bytes LogEntry(uint64_t ctr, const crypto::Digest& root) {
  util::Writer w;
  w.PutU64(ctr);
  w.PutRaw(root);
  return w.Take();
}

Bytes LogCheckpointReply::Serialize() const {
  util::Writer w;
  w.PutU64(size);
  w.PutRaw(root);
  w.PutU32(static_cast<uint32_t>(consistency.size()));
  for (const auto& d : consistency) w.PutRaw(d);
  return w.Take();
}

Result<util::Tainted<LogCheckpointReply>> LogCheckpointReply::Deserialize(
    const Bytes& data) {
  util::Reader r(data);
  LogCheckpointReply reply;
  TCVS_ASSIGN_OR_RETURN(reply.size, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(reply.root, r.GetRaw(crypto::kDigestSize));
  TCVS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  if (n > 1u << 12) return Status::InvalidArgument("oversized proof");
  for (uint32_t i = 0; i < n; ++i) {
    TCVS_ASSIGN_OR_RETURN(crypto::Digest d, r.GetRaw(crypto::kDigestSize));
    reply.consistency.push_back(std::move(d));
  }
  return util::Tainted<LogCheckpointReply>(std::move(reply));
}

Bytes ClientState::Serialize() const {
  util::Writer w;
  w.PutString("tcvs-client-state-v2");
  w.PutU32(user_id);
  w.PutBytes(sigma);
  w.PutBytes(last);
  w.PutU64(gctr);
  w.PutU64(lctr);
  w.PutU64(log_size);
  w.PutBytes(log_root);
  return w.Take();
}

Result<ClientState> ClientState::Deserialize(const Bytes& data) {
  util::Reader r(data);
  TCVS_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != "tcvs-client-state-v2") {
    return Status::InvalidArgument("bad client state magic");
  }
  ClientState s;
  TCVS_ASSIGN_OR_RETURN(s.user_id, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(s.sigma, r.GetBytes());
  TCVS_ASSIGN_OR_RETURN(s.last, r.GetBytes());
  TCVS_ASSIGN_OR_RETURN(s.gctr, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(s.lctr, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(s.log_size, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(s.log_root, r.GetBytes());
  if (s.sigma.size() != crypto::kDigestSize ||
      s.last.size() != crypto::kDigestSize) {
    return Status::InvalidArgument("bad register size in client state");
  }
  return s;
}

// ---------------------------------------------------------------------------
// UntrustedServer
// ---------------------------------------------------------------------------

UntrustedServer::UntrustedServer(mtree::TreeParams params) : branch_(params) {}

UntrustedServer::UntrustedServer(mtree::MerkleBTree tree, uint64_t ctr,
                                 uint32_t creator,
                                 const std::vector<crypto::Digest>& log_leaves)
    : branch_(std::move(tree), ctr, creator),
      log_(crypto::TransparencyLog::FromLeafHashes(log_leaves)) {}

void UntrustedServer::AppendLogEntry() {
  log_.Append(LogEntry(branch_.ctr, branch_.tree.root_digest()));
}

Result<util::Tainted<LogCheckpointReply>> UntrustedServer::LogCheckpoint(
    uint64_t old_size) {
  LogCheckpointReply reply;
  reply.size = log_.size();
  reply.root = log_.Root();
  if (old_size > log_.size()) {
    // The honest server can never be behind a client checkpoint; answer with
    // the (smaller) truth and let the client detect the rollback.
    return util::Tainted<LogCheckpointReply>(std::move(reply));
  }
  TCVS_ASSIGN_OR_RETURN(reply.consistency,
                        log_.ConsistencyProof(old_size, log_.size()));
  return util::Tainted<LogCheckpointReply>(std::move(reply));
}

bool UntrustedServer::Applies(const mtree::MerkleBTree& tree,
                              const std::vector<FileOp>& ops) {
  // Every commit's base revision must match the revision the file will have
  // when that sub-op runs (earlier sub-ops of the same transaction included).
  std::map<std::string, uint64_t> scratch_rev;
  auto current_rev = [&](const std::string& path) -> uint64_t {
    auto it = scratch_rev.find(path);
    if (it != scratch_rev.end()) return it->second;
    auto value = tree.Get(util::ToBytes(path));
    if (!value.has_value()) return 0;
    auto rec = FileRecord::Deserialize(*value);
    return rec.ok() ? rec->revision : 0;
  };
  for (const auto& op : ops) {
    switch (op.kind) {
      case FileOp::Kind::kCommit:
        if (op.base_revision != current_rev(op.path)) return false;
        scratch_rev[op.path] = op.base_revision + 1;
        break;
      case FileOp::Kind::kRemove:
        scratch_rev[op.path] = 0;
        break;
      case FileOp::Kind::kCheckout:
        break;
    }
  }
  return true;
}

Result<util::Tainted<ServerReply>> UntrustedServer::Transact(
    uint32_t user, const std::vector<FileOp>& ops) {
  TCVS_SPAN("cvs.server.transact");
  TCVS_ASSIGN_OR_RETURN(util::Tainted<ServerReply> reply,
                        Execute(core::Serving{&branch_}, user, ops));
  // The post-state lands in the transparency log.
  AppendLogEntry();
  return reply;
}

Result<util::Tainted<ServerReply>> UntrustedServer::Execute(
    const core::Serving& serving, uint32_t user,
    const std::vector<FileOp>& ops) {
  if (ops.empty()) return Status::InvalidArgument("empty transaction");
  core::Branch& branch = *serving.branch;
  mtree::MerkleBTree& tree = branch.tree;

  // Phase 1 — decide, all-or-nothing. Phase 2 — execute sequentially,
  // emitting the pre-sub-op proof for each file. Mutations run only when the
  // transaction applies.
  const bool applies = Applies(tree, ops);
  ServerReply reply;
  reply.applied = applies;
  reply.ctr = branch.ctr;
  reply.creator = branch.creator;
  for (const auto& op : ops) {
    Bytes key = util::ToBytes(op.path);
    ServerReply::PerFile f;
    f.found = tree.Get(key).has_value();
    switch (op.kind) {
      case FileOp::Kind::kCheckout:
        f.vo = tree.ProvePoint(key).Serialize();
        break;
      case FileOp::Kind::kCommit:
        if (applies && !serving.drop) {
          std::string content = op.content;
          if (serving.tamper) content += "\n// TAMPERED BY SERVER\n";
          f.vo = tree.Upsert(key, FileRecord{op.base_revision + 1,
                                             std::move(content)}
                                      .Serialize())
                     .Serialize();
        } else {
          f.vo = tree.ProvePoint(key).Serialize();
        }
        break;
      case FileOp::Kind::kRemove:
        if (applies) {
          bool found = false;
          f.vo = tree.Delete(key, &found).Serialize();
          f.found = found;
        } else {
          f.vo = tree.ProvePoint(key).Serialize();
        }
        break;
    }
    reply.files.push_back(std::move(f));
  }
  static util::Counter* const transactions =
      util::MetricsRegistry::Instance().GetCounter(
          "cvs.server.transactions_total");
  static util::LatencyHistogram* const vo_bytes =
      util::MetricsRegistry::Instance().GetLatency("cvs.server.vo_bytes");
  transactions->Increment();
  uint64_t vo_total = 0;
  for (const auto& f : reply.files) vo_total += f.vo.size();
  vo_bytes->Record(vo_total);

  // One transaction, one counter tick; the requesting user is the new
  // state's creator. Even the in-process server's output is quarantined: it
  // is the untrusted vendor, and only the client's chain walk may unwrap its
  // replies.
  branch.Advance(user);
  return util::Tainted<ServerReply>(std::move(reply));
}

namespace {

// Upper bound of the prefix key-space. File paths are byte strings without
// 0xFF bytes (documented constraint), so prefix ∥ 0xFF…0xFF dominates every
// extension of the prefix.
Bytes PrefixUpperBound(const std::string& prefix) {
  Bytes hi = util::ToBytes(prefix);
  hi.insert(hi.end(), 16, 0xFF);
  return hi;
}

}  // namespace

Result<util::Tainted<ListReply>> UntrustedServer::List(
    uint32_t user, const std::string& prefix) {
  TCVS_SPAN("cvs.server.list");
  TCVS_ASSIGN_OR_RETURN(util::Tainted<ListReply> reply,
                        ExecuteList(&branch_, user, prefix));
  AppendLogEntry();
  return reply;
}

Result<util::Tainted<ListReply>> UntrustedServer::ExecuteList(
    core::Branch* branch, uint32_t user, const std::string& prefix) {
  ListReply reply;
  reply.range_vo =
      branch->tree.ProveRange(util::ToBytes(prefix), PrefixUpperBound(prefix))
          .Serialize();
  static util::LatencyHistogram* const vo_bytes =
      util::MetricsRegistry::Instance().GetLatency("cvs.server.range_vo_bytes");
  vo_bytes->Record(reply.range_vo.size());
  reply.ctr = branch->ctr;
  reply.creator = branch->creator;
  // A listing is a read transaction: the counter advances, the state stays.
  branch->Advance(user);
  return util::Tainted<ListReply>(std::move(reply));
}

// ---------------------------------------------------------------------------
// VerifyingClient
// ---------------------------------------------------------------------------

VerifyingClient::VerifyingClient(uint32_t user_id, ServerApi* server)
    : user_id_(user_id), server_(server), params_(server->tree_params()) {
  log_root_ = crypto::Sha256::Hash("");
}

VerifyingClient::VerifyingClient(ClientState state, ServerApi* server)
    : user_id_(state.user_id),
      server_(server),
      log_size_(state.log_size),
      log_root_(std::move(state.log_root)),
      params_(server->tree_params()) {
  registers_.sigma = std::move(state.sigma);
  registers_.last = std::move(state.last);
  registers_.gctr = state.gctr;
  registers_.lctr = state.lctr;
}

ClientState VerifyingClient::state() const {
  return ClientState{user_id_,        registers_.sigma, registers_.last,
                     registers_.gctr, registers_.lctr,  log_size_,
                     log_root_};
}

Status VerifyingClient::AuditLog() {
  TCVS_ASSIGN_OR_RETURN(util::Tainted<LogCheckpointReply> quarantined,
                        server_->LogCheckpoint(log_size_));
  // Borrow for verification only; the checkpoint registers advance from the
  // endorsed copy below.
  const LogCheckpointReply& reply = quarantined.untrusted();
  if (reply.size < log_size_) {
    return Deviation(
        util::AuditEventKind::kDeviationDetected, user_id_, reply.size,
        registers_.gctr,
        "server transparency log shrank from " + std::to_string(log_size_) +
            " to " + std::to_string(reply.size) + ": history rolled back");
  }
  // Before the first audit the local checkpoint is the empty log.
  crypto::Digest old_root =
      log_size_ == 0 ? crypto::Sha256::Hash("") : log_root_;
  Status st = crypto::TransparencyLog::VerifyConsistency(
      log_size_, reply.size, old_root, reply.root, reply.consistency);
  if (!st.ok()) {
    return Deviation(
        util::AuditEventKind::kDeviationDetected, user_id_, reply.size,
        registers_.gctr,
        "server transparency log is not an extension of the checkpoint (" +
            st.ToString() + "): history rewritten");
  }
  LogCheckpointReply verified =
      TCVS_ENDORSE(std::move(quarantined), crypto::ConsistencyVerified{});
  log_size_ = verified.size;
  log_root_ = std::move(verified.root);
  return Status::OK();
}

Result<ServerReply> VerifyingClient::Execute(
    const std::vector<FileOp>& ops,
    std::vector<std::optional<FileRecord>>* pre_records) {
  // The fold needs a linked VO; an empty transaction has none.
  if (ops.empty()) return Status::InvalidArgument("empty transaction");
  TCVS_ASSIGN_OR_RETURN(util::Tainted<ServerReply> quarantined,
                        server_->Transact(user_id_, ops));
  TCVS_SPAN("cvs.client.verify_transact");
  // Borrow for the chain walk; every use below is a check. The borrow dies
  // at the TCVS_ENDORSE; the register fold reads only the chain's
  // transition.
  const ServerReply& reply = quarantined.untrusted();
  static util::Counter* const transactions =
      util::MetricsRegistry::Instance().GetCounter(
          "cvs.client.transactions_total");
  static util::LatencyHistogram* const vo_bytes =
      util::MetricsRegistry::Instance().GetLatency("cvs.client.vo_bytes");
  transactions->Increment();
  uint64_t vo_total = 0;
  for (const auto& f : reply.files) vo_total += f.vo.size();
  vo_bytes->Record(vo_total);
  if (reply.files.size() != ops.size()) {
    return Deviation(util::AuditEventKind::kDeviationDetected, user_id_,
                     reply.ctr, registers_.gctr,
                     "server answered a different transaction");
  }

  // Walk the VO chain: each sub-op's proof must be rooted at the state the
  // previous sub-ops produced, and each mutation is replayed locally. The
  // server's per-file claims and its apply/reject decision must agree with
  // the authenticated pre-states; the decision is recomputed exactly as an
  // honest server would.
  core::VoChain chain(params_, user_id_, reply.ctr, reply.creator,
                      registers_.gctr);
  pre_records->clear();
  bool expected_applies = true;
  std::map<std::string, uint64_t> scratch_rev;
  for (size_t i = 0; i < ops.size(); ++i) {
    const FileOp& op = ops[i];
    const ServerReply::PerFile& f = reply.files[i];
    TCVS_ASSIGN_OR_RETURN(util::Tainted<mtree::PointVO> vo,
                          mtree::PointVO::Deserialize(f.vo));
    TCVS_RETURN_NOT_OK(chain.Link(vo));
    if (i == 0) {
      TCVS_RETURN_NOT_OK(registers_.CheckCounter(
          user_id_, /*epoch=*/0, reply.ctr, chain.pre_root(), reply.creator));
    }
    static constexpr core::ChainOp::Kind kChainKind[] = {
        core::ChainOp::Kind::kRead, core::ChainOp::Kind::kUpsert,
        core::ChainOp::Kind::kDelete};  // Indexed by FileOp::Kind.
    core::ChainOp sub{kChainKind[static_cast<size_t>(op.kind)],
                      util::ToBytes(op.path), {}, reply.applied};
    if (op.kind == FileOp::Kind::kCommit) {
      sub.value = FileRecord{op.base_revision + 1, op.content}.Serialize();
    }
    TCVS_ASSIGN_OR_RETURN(std::optional<Bytes> value, chain.Step(sub));
    std::optional<FileRecord> record;
    if (value.has_value()) {
      auto rec = FileRecord::Deserialize(*value);
      if (!rec.ok()) {
        return Deviation(util::AuditEventKind::kVoMismatch, user_id_, reply.ctr,
                         registers_.gctr,
                         "server stored a malformed file record");
      }
      record = std::move(rec).ValueOrDie();
    }
    uint64_t current = scratch_rev.count(op.path)
                           ? scratch_rev[op.path]
                           : (record.has_value() ? record->revision : 0);
    switch (op.kind) {
      case FileOp::Kind::kCheckout:
        if (record.has_value() != f.found) {
          return Deviation(util::AuditEventKind::kVoMismatch, user_id_,
                           reply.ctr, registers_.gctr,
                           "server's existence claim contradicts the proof");
        }
        break;
      case FileOp::Kind::kCommit:
        if (op.base_revision != current) expected_applies = false;
        scratch_rev[op.path] = op.base_revision + 1;
        break;
      case FileOp::Kind::kRemove:
        scratch_rev[op.path] = 0;
        if (reply.applied && record.has_value() != f.found) {
          return Deviation(util::AuditEventKind::kVoMismatch, user_id_,
                           reply.ctr, registers_.gctr,
                           "server's removal claim contradicts the proof");
        }
        break;
    }
    pre_records->push_back(std::move(record));
  }

  if (expected_applies != reply.applied) {
    return Deviation(
        util::AuditEventKind::kVoMismatch, user_id_, reply.ctr,
        registers_.gctr,
        "server mis-decided the transaction (authenticated revisions say "
        "applied should be " +
            std::string(expected_applies ? "true" : "false") + ")");
  }

  // Every check passed: endorse, then fold the chain's transition into the
  // Protocol II registers. (`reply` dangles past this point — do not touch
  // it.)
  ServerReply verified = TCVS_ENDORSE(std::move(quarantined), ChainVerified{});
  registers_.Fold(std::move(chain).Finish(), user_id_);
  return verified;
}

Result<FileRecord> VerifyingClient::Checkout(const std::string& path) {
  std::vector<std::optional<FileRecord>> records;
  TCVS_RETURN_NOT_OK(
      Execute({FileOp{FileOp::Kind::kCheckout, path, "", 0}}, &records)
          .status());
  if (!records[0].has_value()) {
    return Status::NotFound("no such file (authenticated): " + path);
  }
  return *records[0];
}

Result<std::vector<std::optional<FileRecord>>> VerifyingClient::CheckoutMany(
    const std::vector<std::string>& paths) {
  std::vector<FileOp> ops;
  for (const auto& p : paths) ops.push_back({FileOp::Kind::kCheckout, p, "", 0});
  std::vector<std::optional<FileRecord>> records;
  TCVS_RETURN_NOT_OK(Execute(ops, &records).status());
  return records;
}

Result<uint64_t> VerifyingClient::Commit(const std::string& path,
                                         std::string content,
                                         uint64_t base_revision) {
  std::vector<std::optional<FileRecord>> records;
  TCVS_ASSIGN_OR_RETURN(
      ServerReply reply,
      Execute({FileOp{FileOp::Kind::kCommit, path, std::move(content),
                      base_revision}},
              &records));
  if (!reply.applied) {
    uint64_t cur = records[0].has_value() ? records[0]->revision : 0;
    if (base_revision == 0 && cur != 0) {
      return Status::AlreadyExists("file already exists at revision " +
                                   std::to_string(cur) + ": " + path);
    }
    return Status::FailedPrecondition(
        "commit against revision " + std::to_string(base_revision) +
        " but current is " + std::to_string(cur) + " (update first)");
  }
  return base_revision + 1;
}

Result<std::vector<uint64_t>> VerifyingClient::CommitMany(
    const std::vector<FileOp>& commits) {
  for (const auto& op : commits) {
    if (op.kind != FileOp::Kind::kCommit) {
      return Status::InvalidArgument("CommitMany accepts only commits");
    }
  }
  std::vector<std::optional<FileRecord>> records;
  TCVS_ASSIGN_OR_RETURN(ServerReply reply, Execute(commits, &records));
  if (!reply.applied) {
    return Status::FailedPrecondition(
        "atomic multi-file commit rejected: at least one base revision is "
        "stale (update first)");
  }
  std::vector<uint64_t> revisions;
  for (const auto& op : commits) revisions.push_back(op.base_revision + 1);
  return revisions;
}

Result<std::vector<std::pair<std::string, uint64_t>>> VerifyingClient::ListDir(
    const std::string& prefix) {
  TCVS_ASSIGN_OR_RETURN(util::Tainted<ListReply> quarantined,
                        server_->List(user_id_, prefix));
  TCVS_SPAN("cvs.client.verify_list");
  const ListReply& reply = quarantined.untrusted();
  static util::LatencyHistogram* const vo_bytes =
      util::MetricsRegistry::Instance().GetLatency(
          "cvs.client.range_vo_bytes");
  vo_bytes->Record(reply.range_vo.size());
  TCVS_ASSIGN_OR_RETURN(util::Tainted<mtree::RangeVO> vo,
                        mtree::RangeVO::Deserialize(reply.range_vo));
  std::optional<core::Transition> read;
  std::vector<std::pair<Bytes, Bytes>> rows;
  {
    TCVS_SPAN("mtree.vo.verify_range");
    TCVS_ASSIGN_OR_RETURN(mtree::CheckedVO checked,
                          mtree::CheckedVO::Check(vo));
    TCVS_RETURN_NOT_OK(registers_.CheckCounter(
        user_id_, /*epoch=*/0, reply.ctr, checked.root(), reply.creator));
    TCVS_ASSIGN_OR_RETURN(
        rows, checked.Range(util::ToBytes(prefix), PrefixUpperBound(prefix)));
    read = core::ReadTransition(checked, reply.ctr, reply.creator);
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [key, value] : rows) {
    auto rec = FileRecord::Deserialize(value);
    if (!rec.ok()) {
      return Deviation(util::AuditEventKind::kVoMismatch, user_id_, reply.ctr,
                       registers_.gctr,
                       "server stored a malformed file record");
    }
    out.emplace_back(util::ToString(key), rec->revision);
  }
  // Fold the read transaction (same root before and after, counter +1); the
  // range proof was its check.
  registers_.Fold(*read, user_id_);
  return out;
}

Status VerifyingClient::Remove(const std::string& path) {
  std::vector<std::optional<FileRecord>> records;
  TCVS_RETURN_NOT_OK(
      Execute({FileOp{FileOp::Kind::kRemove, path, "", 0}}, &records).status());
  if (!records[0].has_value()) {
    return Status::NotFound("no such file (authenticated): " + path);
  }
  return Status::OK();
}

Status VerifyingClient::SyncUp(const std::vector<VerifyingClient*>& clients) {
  std::vector<ClientState> states;
  for (const VerifyingClient* c : clients) states.push_back(c->state());
  return SyncCheck(states);
}

Status VerifyingClient::SyncCheck(const std::vector<ClientState>& states) {
  if (states.empty()) {
    return Status::InvalidArgument("sync-up needs at least one client state");
  }
  std::vector<Bytes> sigmas;
  std::vector<Bytes> lasts;
  uint64_t lctr_sum = 0;
  const ClientState* latest = &states.front();
  for (const auto& s : states) {
    if (s.sigma.size() != crypto::kDigestSize ||
        s.last.size() != crypto::kDigestSize) {
      return Status::InvalidArgument("malformed client state");
    }
    sigmas.push_back(s.sigma);
    lasts.push_back(s.last);
    lctr_sum += s.lctr;
    if (s.gctr >= latest->gctr) latest = &s;
  }
  // A failure names what the transitions fold to versus what the
  // highest-counter participant last observed.
  const Bytes f0 = core::InitialFingerprint(/*tagged=*/true);
  Bytes x = core::XorSum(sigmas);
  const bool closed = core::TelescopeCloses({f0}, lasts, x);
  util::AuditEvent label;
  label.user = latest->user_id;
  label.ctr = latest->gctr;
  label.gctr = latest->gctr;
  label.lctr_sum = lctr_sum;
  core::AuditSyncUp(closed, label, core::XorBytes(f0, latest->last),
                    std::move(x),
                    "(gctr " + std::to_string(latest->gctr) + ")");
  if (closed) return Status::OK();
  return Status::DeviationDetected(
      "sync-up failed: the clients' observed transitions do not form a "
      "single serial history — the server forked or replayed state");
}

}  // namespace cvs
}  // namespace tcvs
