#include "rpc/protocol.h"

#include "util/serde.h"

namespace tcvs {
namespace rpc {

void SerializeFileOp(const cvs::FileOp& op, util::Writer* w) {
  w->PutU8(static_cast<uint8_t>(op.kind));
  w->PutString(op.path);
  w->PutString(op.content);
  w->PutU64(op.base_revision);
}

Result<cvs::FileOp> DeserializeFileOp(util::Reader* r) {
  cvs::FileOp op;
  TCVS_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > 2) return Status::InvalidArgument("bad file-op kind");
  op.kind = static_cast<cvs::FileOp::Kind>(kind);
  TCVS_ASSIGN_OR_RETURN(op.path, r->GetString());
  TCVS_ASSIGN_OR_RETURN(op.content, r->GetString());
  TCVS_ASSIGN_OR_RETURN(op.base_revision, r->GetU64());
  return op;
}

Bytes RpcRequest::Serialize() const {
  util::Writer w;
  w.PutU8(kRpcWireVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(user);
  w.PutU32(static_cast<uint32_t>(ops.size()));
  for (const auto& op : ops) SerializeFileOp(op, &w);
  w.PutString(prefix);
  w.PutU64(old_size);
  w.PutU64(request_id);
  w.PutU64(trace_id);
  w.PutU64(span_id);
  w.PutU64(parent_span_id);
  return w.Take();
}

Result<util::Tainted<RpcRequest>> RpcRequest::Deserialize(const Bytes& data) {
  util::Reader r(data);
  RpcRequest req;
  TCVS_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kRpcWireVersion) {
    return Status::InvalidArgument("unsupported rpc wire version");
  }
  TCVS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type < static_cast<uint8_t>(RpcType::kTransact) ||
      type > static_cast<uint8_t>(RpcType::kLogCheckpoint)) {
    return Status::InvalidArgument("bad rpc type");
  }
  req.type = static_cast<RpcType>(type);
  TCVS_ASSIGN_OR_RETURN(req.user, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  if (n > 1u << 16) return Status::InvalidArgument("too many ops");
  for (uint32_t i = 0; i < n; ++i) {
    TCVS_ASSIGN_OR_RETURN(cvs::FileOp op, DeserializeFileOp(&r));
    req.ops.push_back(std::move(op));
  }
  TCVS_ASSIGN_OR_RETURN(req.prefix, r.GetString());
  TCVS_ASSIGN_OR_RETURN(req.old_size, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(req.request_id, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(req.trace_id, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(req.span_id, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(req.parent_span_id, r.GetU64());
  return util::Tainted<RpcRequest>(std::move(req));
}

RpcResponse RpcResponse::FromStatus(const Status& status) {
  RpcResponse resp;
  resp.status_code = static_cast<uint32_t>(status.code());
  resp.status_message = status.message();
  return resp;
}

Status RpcResponse::ToStatus() const {
  if (status_code == 0) return Status::OK();
  return Status(static_cast<StatusCode>(status_code), status_message);
}

Bytes RpcResponse::Serialize() const {
  util::Writer w;
  w.PutU32(status_code);
  w.PutString(status_message);
  w.PutBytes(payload);
  return w.Take();
}

Result<util::Tainted<RpcResponse>> RpcResponse::Deserialize(const Bytes& data) {
  util::Reader r(data);
  RpcResponse resp;
  TCVS_ASSIGN_OR_RETURN(resp.status_code, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(resp.status_message, r.GetString());
  TCVS_ASSIGN_OR_RETURN(resp.payload, r.GetBytes());
  return util::Tainted<RpcResponse>(std::move(resp));
}

Result<RpcResponse> CheckResponseEnvelope(util::Tainted<RpcResponse> resp) {
  const uint32_t code = resp.untrusted().status_code;
  if (code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::VerificationFailure("rpc response carries unknown status code");
  }
  return TCVS_ENDORSE(std::move(resp), EnvelopeChecked{});
}

Result<RpcRequest> CheckRequestEnvelope(util::Tainted<RpcRequest> req) {
  return TCVS_ENDORSE(std::move(req), EnvelopeChecked{});
}

}  // namespace rpc
}  // namespace tcvs
