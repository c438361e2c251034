#include "core/user.h"

#include <algorithm>

#include "core/forensics.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace tcvs {
namespace core {

namespace {
const char kNullKey[] = "__token_null__";

uint32_t AuditorOf(uint64_t epoch, uint32_t num_users) {
  return static_cast<uint32_t>(epoch % num_users) + 1;
}
}  // namespace

ProtocolUser::ProtocolUser(Options options)
    : options_(std::move(options)),
      registers_(options_.config.protocol != ProtocolKind::kProtocolIINaive) {
  auto it = options_.config.user_periods.find(options_.id);
  period_ = (it == options_.config.user_periods.end()) ? 1 : it->second;
  if (period_ == 0) period_ = 1;
}

void ProtocolUser::OnRound(sim::RoundContext* ctx) {
  if (dead_) return;

  // p-partial synchrony (§2.1): a user with local-clock period p only acts
  // every p-th round; messages delivered meanwhile queue up unread.
  for (const auto& msg : ctx->inbox()) pending_inbox_.push_back(msg);
  if (period_ > 1 && (ctx->round() + options_.id) % period_ != 0) return;
  std::vector<sim::Message> inbox = std::move(pending_inbox_);
  pending_inbox_.clear();

  // b*-bounded transaction time (§2.1): the trusted server answers every
  // query within b* rounds; an older outstanding transaction means the
  // server is stalling — an availability violation by silence.
  if (options_.config.b_star > 0 && inflight_.has_value() &&
      ctx->round() > inflight_->sent_round + options_.config.b_star) {
    bool response_waiting = false;
    for (const auto& msg : inbox) {
      if (msg.type == kMsgQueryResponse) response_waiting = true;
    }
    if (!response_waiting) {
      ctx->ReportDetection(
          "transaction outstanding beyond b* = " +
          std::to_string(options_.config.b_star) +
          " rounds: server violates bounded transaction time");
      dead_ = true;
      return;
    }
  }

  for (const auto& msg : inbox) {
    switch (msg.type) {
      case kMsgQueryResponse:
        HandleResponse(ctx, msg);
        break;
      case kMsgSyncAnnounce:
        HandleSyncAnnounce(ctx, msg);
        break;
      case kMsgSyncReport:
        HandleSyncReport(ctx, msg);
        break;
      case kMsgAggReport:
        HandleAggReport(ctx, msg);
        break;
      case kMsgAggTotal:
        HandleAggTotal(ctx, msg);
        break;
      case kMsgAggSuccess:
        HandleAggSuccess(ctx, msg);
        break;
      case kMsgEpochStatesReply:
        HandleEpochReply(ctx, msg);
        break;
      default:
        break;
    }
    if (dead_) return;
  }

  // Sync reports owed from before (we were mid-transaction when a sync-up
  // arrived) are sent as soon as the transaction completes.
  if (!inflight_.has_value()) {
    for (auto& [id, sync] : syncs_) {
      if (!sync.reported &&
          options_.config.sync_mode == SyncMode::kBroadcast) {
        SendSyncReport(ctx, &sync);
      }
    }
  }
  EvaluateSyncIfComplete(ctx);
  if (dead_) return;

  // Scripted experiment control: user 1 announces extra sync-ups at the
  // configured rounds once idle.
  if (UsesSync() && options_.id == 1 && syncs_.empty() &&
      !inflight_.has_value() &&
      forced_sync_idx_ < options_.config.forced_syncs.size() &&
      ctx->round() >= options_.config.forced_syncs[forced_sync_idx_]) {
    ++forced_sync_idx_;
    SyncAnnounce announce;
    announce.sync_id = ctx->round();
    ctx->Broadcast(kMsgSyncAnnounce, announce.Serialize());
    StartSync(ctx, announce.sync_id);
  }

  MaybeSendQuery(ctx);
}

void ProtocolUser::MaybeSendQuery(sim::RoundContext* ctx) {
  if (inflight_.has_value()) return;
  // Paper: users do not start a new transaction between the sync-up message
  // and the broadcast of their report.
  if (!syncs_.empty()) return;

  if (options_.config.protocol == ProtocolKind::kTokenBaseline) {
    // Pre-specified slots in a pre-specified user order (§2.2.3). One
    // operation per slot; a null record when the user has nothing to do.
    const sim::Round slot_rounds = options_.config.slot_rounds;
    const uint64_t slot = (ctx->round() - 1) / slot_rounds;
    const uint32_t owner = static_cast<uint32_t>(slot % options_.num_users) + 1;
    if (owner != options_.id) return;
    if (last_slot_sent_.has_value() && *last_slot_sent_ == slot) return;
    last_slot_sent_ = slot;
    if (script_pos_ < options_.script.ops.size() &&
        options_.script.ops[script_pos_].earliest_round <= ctx->round()) {
      const auto& op = options_.script.ops[script_pos_++];
      SendOp(ctx, op, /*is_null=*/false, /*expected_ctr=*/slot,
             op.earliest_round);
    } else {
      workload::ScheduledOp null_op;
      null_op.kind = sim::OpKind::kCheckout;
      null_op.key = util::ToBytes(kNullKey);
      SendOp(ctx, null_op, /*is_null=*/true, /*expected_ctr=*/slot,
             ctx->round());
    }
    return;
  }

  if (script_pos_ >= options_.script.ops.size()) return;
  const auto& op = options_.script.ops[script_pos_];
  if (op.earliest_round > ctx->round()) return;
  ++script_pos_;
  SendOp(ctx, op, /*is_null=*/false, 0, op.earliest_round);
}

void ProtocolUser::SendOp(sim::RoundContext* ctx, const workload::ScheduledOp& op,
                          bool is_null, uint64_t expected_ctr,
                          sim::Round eligible) {
  QueryRequest req;
  req.qid = next_qid_++;
  req.kind = op.kind;
  req.key = op.key;
  req.value = op.value;
  // The query carries this round's trace; the server echoes it, so the
  // response verification (and any deviation it uncovers) joins the trace
  // of the round that issued the op.
  req.trace_id = util::CurrentSpanContext().trace_id;
  if (options_.config.protocol == ProtocolKind::kProtocolIII &&
      !upload_queue_.empty()) {
    req.epoch_upload = upload_queue_.front();
    upload_queue_.erase(upload_queue_.begin());
  }
  Inflight inflight;
  inflight.qid = req.qid;
  inflight.op = op;
  inflight.sent_round = ctx->round();
  inflight.eligible_round = eligible;
  inflight.is_null = is_null;
  inflight.expected_ctr = expected_ctr;
  inflight_ = std::move(inflight);
  ctx->Send(sim::kServerId, kMsgQueryRequest, req.Serialize());
}

bool ProtocolUser::VerifyAndFold(sim::RoundContext* ctx,
                                 util::Tainted<QueryResponse> quarantined,
                                 const Inflight& op,
                                 std::optional<Bytes>* observed) {
  const ProtocolKind protocol = options_.config.protocol;
  observed->reset();
  // Borrow for the verification walk only; dies at the TCVS_ENDORSE below.
  const QueryResponse& resp = quarantined.untrusted();

  if (protocol == ProtocolKind::kPlain) {
    // The deliberately unverified baseline: it believes the reply as-is.
    // That credulity is exactly what the experiments price verification
    // against, so the reply is consumed straight from quarantine.
    if (resp.found) *observed = resp.answer;
    registers_.gctr = resp.ctr + 1;
    ++registers_.lctr;
    return true;
  }

  // 1. The verification object must be internally consistent; its root is
  //    the server's claimed pre-state digest M(D) (the VO's one hashing pass).
  auto vo_or = mtree::PointVO::Deserialize(resp.vo);
  if (!vo_or.ok()) {
    ctx->ReportDetection("malformed verification object: " +
                         vo_or.status().ToString());
    return false;
  }
  const util::Tainted<mtree::PointVO> vo = std::move(*vo_or);
  VoChain chain(options_.config.tree_params, options_.id, resp.ctr,
                resp.creator, registers_.gctr);
  if (Status linked = chain.Link(vo); !linked.ok()) {
    ctx->ReportDetection("inconsistent verification object: " +
                         linked.ToString());
    return false;
  }
  const crypto::Digest& pre_root = chain.pre_root();

  // 2. Token baseline: the counter must equal the deterministic slot index
  //    (checked first — a replayed stale state fails here with a precise
  //    diagnosis before its stale-but-legitimate signature is even read).
  if (protocol == ProtocolKind::kTokenBaseline && resp.ctr != op.expected_ctr) {
    ctx->ReportDetection("counter " + std::to_string(resp.ctr) +
                         " does not match slot " +
                         std::to_string(op.expected_ctr));
    return false;
  }

  // 3. Protocol I / token baseline: the claimed state must carry the last
  //    writer's signature over h(M(D) ‖ ctr) — the server cannot forge it.
  if (UsesSignedRoots()) {
    Status st = options_.keystore->VerifyFrom(
        resp.creator, SignedStatePreimage(pre_root, resp.ctr), resp.sig);
    if (!st.ok()) {
      util::AuditEvent event(util::AuditEventKind::kSignatureVerifyFailure);
      event.user = options_.id;
      event.ctr = resp.ctr;
      event.epoch = current_epoch_;
      event.detail = "state signature claimed from user " +
                     std::to_string(resp.creator) + ": " + st.ToString();
      util::AuditLog::Instance().Emit(std::move(event));
      ctx->ReportDetection("illegitimate state signature: " + st.ToString());
      return false;
    }
  }

  // 4. Counter monotonicity (Protocol II step 4): the server may never show
  //    this user a counter older than one it has already seen.
  if (UsesXorRegisters()) {
    Status st = registers_.CheckCounter(options_.id, current_epoch_, resp.ctr,
                                        pre_root, resp.creator);
    if (!st.ok()) {
      ctx->ReportDetection(st.message());
      return false;
    }
  }

  // 5. Protocol III: epoch sanity against the user's own clock, then the
  //    epoch-boundary snapshot (taken BEFORE folding this transaction).
  if (protocol == ProtocolKind::kProtocolIII) {
    const uint64_t own_epoch = ctx->round() / options_.config.epoch_rounds;
    if (resp.epoch + 1 < own_epoch || resp.epoch > own_epoch) {
      ctx->ReportDetection("server epoch " + std::to_string(resp.epoch) +
                           " inconsistent with local clock epoch " +
                           std::to_string(own_epoch));
      return false;
    }
    if (resp.epoch > current_epoch_) {
      EpochStateBlob blob;
      blob.user = options_.id;
      blob.epoch = current_epoch_;
      blob.sigma = registers_.sigma;
      blob.last = registers_.last;
      auto sig = options_.signer->Sign(blob.Preimage());
      if (!sig.ok()) {
        // Key exhausted: this user leaves the system (failures are out of
        // scope per the paper; experiments must size keys for their runs).
        TCVS_LOG(Warn) << "user " << options_.id
                       << " signing key exhausted; leaving";
        dead_ = true;
        return false;
      }
      blob.signature = std::move(sig).ValueOrDie();
      upload_queue_.push_back(std::move(blob));
      registers_.sigma.assign(crypto::kDigestSize, 0);
      current_epoch_ = resp.epoch;
    }
  }

  // 6. Verify the answer / replay the update against the claimed pre-state
  //    to obtain the post-state digest M(D′).
  static constexpr const char* kRejected[] = {
      "checkout VO rejected: ", "commit VO rejected: ", "delete VO rejected: "};
  static constexpr ChainOp::Kind kChainKind[] = {
      ChainOp::Kind::kRead, ChainOp::Kind::kUpsert, ChainOp::Kind::kDelete};
  const size_t kind = static_cast<size_t>(op.op.kind);
  auto value_or =
      chain.Step(ChainOp{kChainKind[kind], op.op.key, op.op.value});
  if (!value_or.ok()) {
    ctx->ReportDetection(kRejected[kind] + value_or.status().ToString());
    return false;
  }
  if (op.op.kind == sim::OpKind::kCheckout) {
    // The loose answer fields must agree with the authenticated result.
    if (value_or->has_value() != resp.found ||
        (resp.found && **value_or != resp.answer)) {
      ctx->ReportDetection("server answer contradicts verification object");
      return false;
    }
    *observed = *value_or;
  }
  const Transition transition = std::move(chain).Finish();

  // 7. Every check passed: endorse the reply out of quarantine, then fold
  //    the chain's transition into the protocol registers (and the bounded
  //    fault-localization journal when enabled).
  const QueryResponse verified =
      TCVS_ENDORSE(std::move(quarantined), mtree::VoVerified{});
  // `resp` dangles past this point — do not touch it.
  if (UsesXorRegisters()) {
    auto [pre_fp, post_fp] = registers_.Fold(transition, options_.id);
    if (options_.config.journal_len > 0) {
      journal_.push_back(TransitionRecord{std::move(pre_fp), std::move(post_fp),
                                          verified.ctr, verified.creator,
                                          options_.id});
      if (journal_.size() > options_.config.journal_len) {
        journal_.erase(journal_.begin());
      }
    }
  } else {
    registers_.gctr = verified.ctr + 1;
    ++registers_.lctr;
  }

  // 8. Protocol I / token baseline: return the signed new state to the
  //    server (the blocking extra message of §4.2).
  if (UsesSignedRoots()) {
    RootSigUpload up;
    up.user = options_.id;
    up.ctr_after = verified.ctr + 1;
    auto sig =
        options_.signer->Sign(SignedStatePreimage(transition.post_root(),
                                                  verified.ctr + 1));
    if (!sig.ok()) {
      TCVS_LOG(Warn) << "user " << options_.id
                     << " signing key exhausted; leaving";
      dead_ = true;
      return false;
    }
    up.sig = std::move(sig).ValueOrDie();
    ctx->Send(sim::kServerId, kMsgRootSigUpload, up.Serialize());
  }
  return true;
}

void ProtocolUser::HandleResponse(sim::RoundContext* ctx,
                                  const sim::Message& msg) {
  auto resp_or = QueryResponse::Deserialize(msg.payload);
  if (!resp_or.ok()) {
    ctx->ReportDetection("malformed response: " + resp_or.status().ToString());
    dead_ = true;
    return;
  }
  util::Tainted<QueryResponse> quarantined = std::move(*resp_or);
  // Borrow for dispatch only (trace join + in-flight matching); the full
  // verification happens inside VerifyAndFold before anything is believed.
  const QueryResponse& resp = quarantined.untrusted();
  // Re-enter the trace of the query this response answers: verification
  // spans and audit events below pivot back to the originating exchange.
  util::ScopedTraceContext trace_ctx(resp.trace_id, 0);
  TCVS_SPAN("core.user.handle_response");
  if (!inflight_.has_value() || inflight_->qid != resp.qid) {
    ctx->ReportDetection("response to a query this user never issued");
    dead_ = true;
    return;
  }
  // Captured by value before the reply moves into VerifyAndFold; only
  // recorded in the ground-truth trace once verification succeeded.
  const uint64_t server_seq = resp.ctr;
  Inflight op = std::move(*inflight_);
  inflight_.reset();

  std::optional<Bytes> observed;
  if (!VerifyAndFold(ctx, std::move(quarantined), op, &observed)) {
    dead_ = true;
    return;
  }
  // `resp` dangles past the move above — do not touch it.

  if (!op.is_null) {
    ++ops_completed_;
    uint64_t latency = ctx->round() - op.eligible_round;
    latency_sum_ += latency;
    latency_max_ = std::max(latency_max_, latency);
    latency_hist_.Record(latency);
    if (options_.trace != nullptr) {
      sim::OpRecord record;
      record.user = options_.id;
      record.issued = op.sent_round;
      record.completed = ctx->round();
      record.kind = op.op.kind;
      record.key = op.op.key;
      record.value = op.op.value;
      record.observed = observed;
      record.server_seq = server_seq;
      options_.trace->Record(std::move(record));
    }
    ++ops_since_sync_;
  }

  MaybeAnnounceSync(ctx);
  MaybeRequestAudit(ctx);
}

void ProtocolUser::MaybeAnnounceSync(sim::RoundContext* ctx) {
  if (!UsesSync()) return;
  if (!syncs_.empty()) return;  // Already syncing.
  if (ops_since_sync_ < options_.config.sync_k) return;
  // First user to complete k operations announces the sync-up (§4.2).
  SyncAnnounce announce;
  announce.sync_id = ctx->round();
  ctx->Broadcast(kMsgSyncAnnounce, announce.Serialize());
  StartSync(ctx, announce.sync_id);
}

void ProtocolUser::StartSync(sim::RoundContext* ctx, uint64_t sync_id) {
  SyncState& sync = syncs_[sync_id];
  sync.sync_id = sync_id;
  if (options_.config.sync_mode == SyncMode::kBroadcast) {
    if (!inflight_.has_value()) SendSyncReport(ctx, &sync);
    // Otherwise the report goes out when the current txn completes.
  } else {
    StepTreeSync(ctx);
  }
}

void ProtocolUser::SendSyncReport(sim::RoundContext* ctx, SyncState* sync) {
  if (sync->reported) return;
  SyncReport report;
  report.sync_id = sync->sync_id;
  report.user = options_.id;
  report.lctr = registers_.lctr;
  report.gctr = registers_.gctr;
  report.sigma = registers_.sigma;
  report.last = registers_.last;
  report.journal = journal_;
  ctx->Broadcast(kMsgSyncReport, report.Serialize());
  // The user's own report joins the pool through the same quarantine type as
  // everyone else's — the evaluation treats all reports alike.
  sync->reports.insert_or_assign(options_.id,
                                 util::Tainted<SyncReport>(std::move(report)));
  sync->reported = true;
}

void ProtocolUser::HandleSyncAnnounce(sim::RoundContext* ctx,
                                      const sim::Message& msg) {
  if (!UsesSync()) return;
  auto ann_or = SyncAnnounce::Deserialize(msg.payload);
  if (!ann_or.ok()) return;
  // An announce only names a sync id (a round number); nothing to verify.
  const uint64_t sync_id = ann_or->untrusted().sync_id;
  if (syncs_.count(sync_id) > 0) return;  // Duplicate announce.
  StartSync(ctx, sync_id);
}

void ProtocolUser::HandleSyncReport(sim::RoundContext* ctx,
                                    const sim::Message& msg) {
  if (!UsesSync()) return;
  auto rep_or = SyncReport::Deserialize(msg.payload);
  if (!rep_or.ok()) return;
  const uint64_t sync_id = rep_or->untrusted().sync_id;
  const uint32_t from_user = rep_or->untrusted().user;
  auto it = syncs_.find(sync_id);
  if (it == syncs_.end()) return;  // Already evaluated; late duplicate.
  // Pooled still quarantined; the sync-up evaluation is the verifier.
  it->second.reports.insert_or_assign(from_user, std::move(*rep_or));
  (void)ctx;
}

void ProtocolUser::FinishSyncSuccess(sim::RoundContext* ctx,
                                     uint64_t sync_id) {
  static util::Counter* const completed =
      util::MetricsRegistry::Instance().GetCounter(
          "core.sync.completed_total");
  static util::LatencyHistogram* const duration =
      util::MetricsRegistry::Instance().GetLatency("core.sync.duration_rounds");
  completed->Increment();
  // sync_id is the announce round, so this is the end-to-end sync-up lag.
  if (ctx != nullptr && ctx->round() >= sync_id) {
    duration->Record(ctx->round() - sync_id);
  }
  syncs_.erase(sync_id);
  ops_since_sync_ = 0;
  // Everything verified up to the counters covered by this sync: advance the
  // rollback checkpoint.
  checkpoint_gctr_ = registers_.gctr;
}

// ---------------------------------------------------------------------------
// Aggregation-tree sync (future-work extension; see SyncMode).
// Users form a static binary heap: user i's children are 2i and 2i+1, its
// parent is i/2, user 1 is the root.
// ---------------------------------------------------------------------------

void ProtocolUser::StepTreeSync(sim::RoundContext* ctx) {
  if (options_.config.sync_mode != SyncMode::kAggregationTree) return;
  std::vector<uint64_t> ids;
  for (const auto& [id, sync] : syncs_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = syncs_.find(id);
    if (it == syncs_.end()) continue;
    StepTreeSyncOne(ctx, &it->second);
    if (dead_) return;
  }
}

void ProtocolUser::StepTreeSyncOne(sim::RoundContext* ctx, SyncState* sync_ptr) {
  SyncState& sync = *sync_ptr;

  // Phase 1 (leaves → root): once idle and all children reported, fold and
  // forward the subtree aggregate.
  if (!sync.reported && !inflight_.has_value()) {
    uint32_t left = 2 * options_.id;
    uint32_t right = 2 * options_.id + 1;
    bool have_left = left > options_.num_users || sync.child_aggs.count(left);
    bool have_right = right > options_.num_users || sync.child_aggs.count(right);
    if (have_left && have_right) {
      AggReport agg;
      agg.sync_id = sync.sync_id;
      agg.user = options_.id;
      agg.sigma_xor = registers_.sigma;
      agg.lctr_sum = registers_.lctr;
      for (const auto& [child, quarantined] : sync.child_aggs) {
        // Child aggregates fold into this subtree's aggregate unverified —
        // only the final total-vs-register match check can vouch for them.
        const AggReport& report = quarantined.untrusted();
        agg.sigma_xor = XorBytes(agg.sigma_xor, report.sigma_xor);
        agg.lctr_sum += report.lctr_sum;
      }
      sync.reported = true;
      if (options_.id == 1) {
        // Root: the aggregate is the total; disseminate it.
        AggTotal total;
        total.sync_id = sync.sync_id;
        total.sigma_total = agg.sigma_xor;
        total.lctr_total = agg.lctr_sum;
        ctx->Broadcast(kMsgAggTotal, total.Serialize());
        sync.total_received = true;
        sync.sigma_total = total.sigma_total;
        sync.lctr_total = total.lctr_total;
        sync.success_deadline = ctx->round() + 4 + 2 * options_.config.num_users;
      } else {
        ctx->Send(options_.id / 2, kMsgAggReport, agg.Serialize());
      }
    }
  }

  // Phase 2 (total → everyone): check the local match condition; a matching
  // user announces success.
  if (sync.total_received && sync.success_deadline.has_value()) {
    const bool match =
        options_.config.protocol == ProtocolKind::kProtocolI
            ? registers_.gctr == sync.lctr_total
            : TelescopeCloses({InitialFingerprint(registers_.tagged)},
                              {registers_.last}, sync.sigma_total);
    if (match) {
      AggSuccess success;
      success.sync_id = sync.sync_id;
      success.user = options_.id;
      ctx->Broadcast(kMsgAggSuccess, success.Serialize());
      FinishSyncSuccess(ctx, sync.sync_id);
      return;
    }
    if (ctx->round() >= *sync.success_deadline) {
      ctx->ReportDetection(
          "sync-up (aggregation tree) failed: no user's state matches the "
          "aggregate — server deviated");
      dead_ = true;
    }
  }
}

void ProtocolUser::HandleAggReport(sim::RoundContext* ctx,
                                   const sim::Message& msg) {
  auto agg_or = AggReport::Deserialize(msg.payload);
  if (!agg_or.ok()) return;
  const uint64_t sync_id = agg_or->untrusted().sync_id;
  const uint32_t from_user = agg_or->untrusted().user;
  auto it = syncs_.find(sync_id);
  if (it == syncs_.end()) return;
  it->second.child_aggs.insert_or_assign(from_user, std::move(*agg_or));
  (void)ctx;
}

void ProtocolUser::HandleAggTotal(sim::RoundContext* ctx,
                                  const sim::Message& msg) {
  auto total_or = AggTotal::Deserialize(msg.payload);
  if (!total_or.ok()) return;
  // The claimed total is only *stored*; believing it happens in the match
  // check of StepTreeSyncOne, whose failure kills the client, not its state.
  const AggTotal& total = total_or->untrusted();
  auto it = syncs_.find(total.sync_id);
  if (it == syncs_.end()) return;
  it->second.total_received = true;
  it->second.sigma_total = total.sigma_total;
  it->second.lctr_total = total.lctr_total;
  it->second.success_deadline =
      ctx->round() + 4 + 2 * options_.config.num_users;  // Delay-tolerant.
}

void ProtocolUser::HandleAggSuccess(sim::RoundContext* ctx,
                                    const sim::Message& msg) {
  auto success_or = AggSuccess::Deserialize(msg.payload);
  if (!success_or.ok()) return;
  const uint64_t sync_id = success_or->untrusted().sync_id;
  if (syncs_.count(sync_id) == 0) return;
  FinishSyncSuccess(ctx, sync_id);
}

void ProtocolUser::EvaluateSyncIfComplete(sim::RoundContext* ctx) {
  if (options_.config.sync_mode == SyncMode::kAggregationTree) {
    StepTreeSync(ctx);
    return;
  }
  std::vector<uint64_t> ready;
  for (const auto& [id, sync] : syncs_) {
    if (sync.reported && sync.reports.size() >= options_.num_users) {
      ready.push_back(id);
    }
  }
  for (uint64_t id : ready) {
    EvaluateBroadcastSync(ctx, id);
    if (dead_) return;
  }
}

void ProtocolUser::EvaluateBroadcastSync(sim::RoundContext* ctx, uint64_t id) {
  SyncState& sync = syncs_.at(id);
  bool success = false;
  uint64_t lctr_total = 0;
  // The pooled reports are consumed straight from quarantine: the pooled
  // check below IS their verification — it either passes (some user's state
  // explains the pool) or kills the client. No register is folded from them.
  for (const auto& [user, report] : sync.reports) {
    lctr_total += report.untrusted().lctr;
  }
  // Protocol II divergence evidence, captured for the audit trail: this
  // user's expected pooled XOR vs the one actually observed.
  Bytes expected_x;
  Bytes actual_x;
  if (options_.config.protocol == ProtocolKind::kProtocolI) {
    for (const auto& [user, report] : sync.reports) {
      if (report.untrusted().gctr == lctr_total) {
        success = true;
        break;
      }
    }
  } else {
    std::vector<Bytes> sigmas;
    std::vector<Bytes> lasts;
    for (const auto& [user, report] : sync.reports) {
      if (report.untrusted().sigma.size() != crypto::kDigestSize) {
        ctx->ReportDetection("malformed sync report");
        dead_ = true;
        return;
      }
      sigmas.push_back(report.untrusted().sigma);
      lasts.push_back(report.untrusted().last);
    }
    const Bytes f0 = InitialFingerprint(registers_.tagged);
    expected_x = XorBytes(f0, registers_.last);
    actual_x = XorSum(sigmas);
    success = TelescopeCloses({f0}, lasts, actual_x);
  }

  util::AuditEvent label;
  label.user = options_.id;
  label.ctr = registers_.gctr;
  label.epoch = current_epoch_;
  label.gctr = registers_.gctr;
  label.lctr_sum = lctr_total;
  AuditSyncUp(success, label, std::move(expected_x), std::move(actual_x),
              std::to_string(id));
  if (!success) {
    std::string reason = "sync-up check failed: server deviated";
    if (options_.config.journal_len > 0) {
      // Fault localization (future-work extension): pool the bounded
      // journals from all reports and name the earliest inconsistent
      // counter.
      std::vector<TransitionRecord> pooled;
      for (const auto& [user, report] : sync.reports) {
        pooled.insert(pooled.end(), report.untrusted().journal.begin(),
                      report.untrusted().journal.end());
      }
      if (auto fault = LocalizeFault(pooled); fault.has_value()) {
        util::AuditEvent event(util::AuditEventKind::kForensicsLocalized);
        event.user = options_.id;
        event.ctr = fault->first_bad_ctr;
        event.epoch = current_epoch_;
        event.detail = fault->explanation;
        util::AuditLog::Instance().Emit(std::move(event));
        reason += "; first fault at counter " +
                  std::to_string(fault->first_bad_ctr) + " (" +
                  fault->explanation + ")";
      }
    }
    ctx->ReportDetection(reason);
    dead_ = true;
    return;
  }
  FinishSyncSuccess(ctx, id);
}

void ProtocolUser::MaybeRequestAudit(sim::RoundContext* ctx) {
  if (options_.config.protocol != ProtocolKind::kProtocolIII) return;
  if (audit_inflight_epoch_.has_value()) return;
  if (current_epoch_ < 2) return;
  // Audit epochs become actionable two epochs later (§4.4, point C).
  while (next_audit_epoch_ + 2 <= current_epoch_) {
    uint64_t e = next_audit_epoch_;
    if (AuditorOf(e, options_.num_users) == options_.id) {
      static util::Counter* const audits =
          util::MetricsRegistry::Instance().GetCounter(
              "core.audit.requests_total");
      static util::LatencyHistogram* const lag =
          util::MetricsRegistry::Instance().GetLatency(
              "core.audit.epoch_lag_epochs");
      audits->Increment();
      // How far behind the current epoch this audit runs: the epoch
      // detection lag the paper's §4.4 audit schedule induces.
      lag->Record(current_epoch_ - e);
      EpochStatesRequest req;
      req.epoch = e;
      ctx->Send(sim::kServerId, kMsgEpochStatesRequest, req.Serialize());
      audit_inflight_epoch_ = e;
      ++next_audit_epoch_;
      return;  // One audit in flight at a time.
    }
    ++next_audit_epoch_;
  }
}

void ProtocolUser::HandleEpochReply(sim::RoundContext* ctx,
                                    const sim::Message& msg) {
  if (options_.config.protocol != ProtocolKind::kProtocolIII) return;
  auto reply_or = EpochStatesReply::Deserialize(msg.payload);
  if (!reply_or.ok()) {
    ctx->ReportDetection("malformed epoch-state reply");
    dead_ = true;
    return;
  }
  // The reply is a bag of stored blobs; each blob is endorsed individually
  // below, once its owner's signature verifies. The envelope itself carries
  // nothing trustworthy beyond the epoch it claims to answer.
  const EpochStatesReply& reply = reply_or->untrusted();
  if (!audit_inflight_epoch_.has_value() ||
      reply.epoch != *audit_inflight_epoch_) {
    return;
  }
  const uint64_t e = reply.epoch;
  audit_inflight_epoch_.reset();

  // Collect and authenticate one blob per user for epoch e. Every owner
  // signature in the reply is checked before the first failure is
  // returned, so each bad blob is audited; the endorsement stays per-blob —
  // each SignatureVerified token corresponds to exactly one OK verdict.
  auto collect = [&](const std::vector<EpochStateBlob>& blobs, uint64_t epoch,
                     std::map<uint32_t, EpochStateBlob>* out) -> Status {
    for (const auto& blob : blobs) {
      if (blob.epoch != epoch) {
        return Status::VerificationFailure(
            "stored state carries wrong epoch tag");
      }
    }
    std::vector<Status> verdicts;
    verdicts.reserve(blobs.size());
    for (const auto& blob : blobs) {
      verdicts.push_back(options_.keystore->VerifyFrom(
          blob.user, blob.Preimage(), blob.signature));
    }
    for (size_t i = 0; i < blobs.size(); ++i) {
      TCVS_RETURN_NOT_OK(verdicts[i]);
      // The owner's signature is the verification — the server is only a
      // blob store here, so SignatureVerified endorses each blob alone.
      EpochStateBlob verified =
          TCVS_ENDORSE(util::Tainted<EpochStateBlob>(blobs[i]),
                       crypto::SignatureVerified{});
      if (out->count(verified.user) > 0 && (*out)[verified.user] != verified) {
        return Status::VerificationFailure("conflicting stored states");
      }
      (*out)[verified.user] = std::move(verified);
    }
    if (out->size() != options_.num_users) {
      return Status::VerificationFailure(
          "missing stored epoch state for some user");
    }
    return Status::OK();
  };

  std::map<uint32_t, EpochStateBlob> states;
  Status st = collect(reply.states, e, &states);
  if (!st.ok()) {
    ctx->ReportDetection("epoch " + std::to_string(e) + " audit: " +
                         st.ToString());
    dead_ = true;
    return;
  }
  std::map<uint32_t, EpochStateBlob> prev;
  std::vector<Bytes> prev_lasts;
  if (e == 0) {
    prev_lasts.push_back(InitialFingerprint(/*tagged=*/true));
  } else {
    st = collect(reply.prev_states, e - 1, &prev);
    if (!st.ok()) {
      ctx->ReportDetection("epoch " + std::to_string(e) +
                           " audit (previous epoch states): " + st.ToString());
      dead_ = true;
      return;
    }
    for (const auto& [user, blob] : prev) prev_lasts.push_back(blob.last);
  }

  std::vector<Bytes> sigmas;
  std::vector<Bytes> lasts;
  for (const auto& [user, blob] : states) {
    sigmas.push_back(blob.sigma);
    lasts.push_back(blob.last);
  }
  if (!TelescopeCloses(prev_lasts, lasts, XorSum(sigmas))) {
    ctx->ReportDetection("epoch " + std::to_string(e) +
                         " audit failed: state transitions do not form a "
                         "single path");
    dead_ = true;
    return;
  }
}

}  // namespace core
}  // namespace tcvs
