#include "core/server.h"

#include "util/logging.h"
#include "util/metrics.h"

namespace tcvs {
namespace core {

ProtocolServer::ProtocolServer(ScenarioConfig config, Bytes initial_sig,
                               uint32_t initial_signer)
    : config_(std::move(config)),
      adversary_(config_.attack.schedule,
                 Branch(mtree::MerkleBTree(config_.tree_params), /*ctr=*/0,
                        initial_signer, std::move(initial_sig))) {}

void ProtocolServer::OnRound(sim::RoundContext* ctx) {
  adversary_.Activate(ctx->round());

  // Release delayed responses whose hold expired.
  std::deque<DelayedSend> still_held;
  for (auto& d : delayed_) {
    if (d.due <= ctx->round()) {
      ctx->Send(d.to, kMsgQueryResponse, std::move(d.payload));
    } else {
      still_held.push_back(std::move(d));
    }
  }
  delayed_ = std::move(still_held);

  // New messages join the tail of the pending queue; the queue preserves the
  // serial arrival order the trusted server would execute in.
  for (const auto& msg : ctx->inbox()) {
    switch (msg.type) {
      case kMsgQueryRequest:
        pending_.push_back(msg);
        break;
      case kMsgRootSigUpload:
        HandleSigUpload(msg);
        break;
      case kMsgEpochStatesRequest:
        HandleEpochRequest(ctx, msg);
        break;
      default:
        break;  // Broadcast traffic is user-to-user; ignore anything else.
    }
  }

  // Availability violation by silence: accept queries but never answer.
  if (adversary_.Active(AttackKind::kStall, ctx->round(), std::nullopt) !=
      nullptr) {
    if (!pending_.empty()) adversary_.MarkEngaged(ctx->round());
    return;
  }

  // Execute queued queries. Non-blocking protocols drain the whole queue;
  // Protocol I (and the token baseline) stop after one query and wait for
  // the user's signature upload — the paper's throughput-limiting step.
  while (!pending_.empty()) {
    if (UsesBlockingSig() && awaiting_sig_) break;
    sim::Message msg = std::move(pending_.front());
    pending_.pop_front();
    HandleQuery(ctx, msg);
    if (UsesBlockingSig()) awaiting_sig_ = true;
  }
}

void ProtocolServer::HandleQuery(sim::RoundContext* ctx, const sim::Message& msg) {
  auto req_or = QueryRequest::Deserialize(msg.payload);
  if (!req_or.ok()) return;  // Malformed request: drop (failures out of scope).
  // Server-side structural endorsement: the untrusted server consumes client
  // frames as-is; no cryptographic property is claimed (see FrameChecked).
  const QueryRequest req = AcceptClientFrame(std::move(req_or).ValueOrDie());
  const sim::Round now = ctx->round();
  const sim::AgentId user = msg.from;

  // Protocol III: store the piggybacked signed epoch state (the server is
  // just a blob store here; verification happens at the auditor).
  if (req.epoch_upload.has_value()) {
    const EpochStateBlob& blob = *req.epoch_upload;
    epoch_states_[blob.epoch][blob.user] = blob;
  }

  // Join the querying user's causal trace: the proof/upsert spans below and
  // the response echo all carry the trace id the query arrived with.
  util::ScopedTraceContext trace_ctx(req.trace_id, 0);
  TCVS_SPAN("core.server.execute");

  Serving serving = adversary_.Route(now, user);
  if (req.kind == sim::OpKind::kCommit) adversary_.Alter(now, user, &serving);
  Branch* branch = serving.branch;

  QueryResponse resp;
  resp.qid = req.qid;
  resp.kind = req.kind;
  resp.ctr = branch->ctr;
  resp.creator = branch->creator;
  resp.sig = branch->sig;
  resp.epoch = now / config_.epoch_rounds;
  resp.trace_id = util::CurrentSpanContext().trace_id;

  const bool with_vo = config_.protocol != ProtocolKind::kPlain;
  switch (req.kind) {
    case sim::OpKind::kCheckout: {
      if (with_vo) resp.vo = branch->tree.ProvePoint(req.key).Serialize();
      auto value = branch->tree.Get(req.key);
      resp.found = value.has_value();
      if (value.has_value()) resp.answer = *value;
      break;
    }
    case sim::OpKind::kCommit: {
      Bytes value = req.value;
      if (serving.tamper) util::Append(&value, "\n// TAMPERED BY SERVER\n");
      if (serving.drop) {
        if (with_vo) resp.vo = branch->tree.ProvePoint(req.key).Serialize();
      } else {
        mtree::PointVO vo = branch->tree.Upsert(req.key, value);
        if (with_vo) resp.vo = vo.Serialize();
      }
      break;
    }
    case sim::OpKind::kDelete: {
      bool found = false;
      mtree::PointVO vo = branch->tree.Delete(req.key, &found);
      if (with_vo) resp.vo = vo.Serialize();
      resp.found = found;
      break;
    }
  }

  // Under Protocol I the signature for the new state is installed only when
  // the user's upload arrives.
  branch->Advance(user);
  if (UsesBlockingSig()) branch->sig.clear();

  ++ops_processed_;
  if (adversary_.engaged()) ++ops_after_attack_;

  // Hold the response back inside a delay window. Bounded delay is within
  // the model (not a deviation), so no engagement mark — it exists to perturb
  // interleavings and sync timing in campaigns.
  const AttackStep* delay = adversary_.Active(AttackKind::kDelay, now, user);
  if (delay != nullptr && delay->arg > 0) {
    delayed_.push_back(DelayedSend{now + delay->arg, user, resp.Serialize()});
    return;
  }
  ctx->Send(user, kMsgQueryResponse, resp.Serialize());
}

void ProtocolServer::HandleSigUpload(const sim::Message& msg) {
  auto up_or = RootSigUpload::Deserialize(msg.payload);
  if (!up_or.ok()) return;
  RootSigUpload up = AcceptClientFrame(std::move(up_or).ValueOrDie());
  awaiting_sig_ = false;
  // Install the signature on whichever branch it continues. Replay-fork
  // uploads (stale counters) are silently discarded — the untrusted server
  // has no use for them.
  Branch& main = adversary_.main();
  Branch* fork = adversary_.fork();
  if (up.ctr_after == main.ctr && up.user == main.creator) {
    main.sig = up.sig;
  } else if (fork != nullptr && up.ctr_after == fork->ctr &&
             up.user == fork->creator) {
    fork->sig = up.sig;
  }
}

void ProtocolServer::HandleEpochRequest(sim::RoundContext* ctx,
                                        const sim::Message& msg) {
  auto req_or = EpochStatesRequest::Deserialize(msg.payload);
  if (!req_or.ok()) return;
  const EpochStatesRequest req = AcceptClientFrame(std::move(req_or).ValueOrDie());
  const uint64_t epoch = req.epoch;
  const sim::Round now = ctx->round();

  EpochStatesReply reply;
  reply.epoch = epoch;
  for (const auto& [user, blob] : epoch_states_[epoch]) {
    if (adversary_.Active(AttackKind::kOmitEpochState, now, user) != nullptr) {
      adversary_.MarkEngaged(now);
      continue;  // Withhold the victim's state.
    }
    if (adversary_.Active(AttackKind::kStaleEpochState, now, user) != nullptr &&
        epoch > 0 && epoch_states_[epoch - 1].count(user) > 0) {
      adversary_.MarkEngaged(now);
      reply.states.push_back(epoch_states_[epoch - 1][user]);
      continue;  // Substitute last epoch's (validly signed, stale) blob.
    }
    reply.states.push_back(blob);
  }
  if (epoch > 0) {
    for (const auto& [user, blob] : epoch_states_[epoch - 1]) {
      reply.prev_states.push_back(blob);
    }
  }
  ctx->Send(msg.from, kMsgEpochStatesReply, reply.Serialize());
}

}  // namespace core
}  // namespace tcvs
