#include "core/protocol_core.h"

#include "util/logging.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace core {

Bytes XorBytes(const Bytes& a, const Bytes& b) {
  TCVS_CHECK(a.size() == b.size());
  Bytes out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

crypto::Digest StateFingerprint(const crypto::Digest& root, uint64_t ctr,
                                uint32_t creator) {
  util::Writer w;
  w.PutRaw(root);
  w.PutU64(ctr);
  w.PutU32(creator);
  return crypto::Sha256::Hash(w.buffer());
}

crypto::Digest StateFingerprintUntagged(const crypto::Digest& root,
                                        uint64_t ctr) {
  util::Writer w;
  w.PutRaw(root);
  w.PutU64(ctr);
  return crypto::Sha256::Hash(w.buffer());
}

crypto::Digest InitialFingerprint(bool tagged) {
  crypto::Digest m0 = mtree::EmptyRootDigest();
  return tagged ? StateFingerprint(m0, 0, kInitialCreator)
                : StateFingerprintUntagged(m0, 0);
}

Bytes SignedStatePreimage(const crypto::Digest& root, uint64_t ctr) {
  util::Writer w;
  w.PutString("tcvs-p1-state");
  w.PutRaw(root);
  w.PutU64(ctr);
  return crypto::Sha256::Hash(w.buffer());
}

Transition ReadTransition(const mtree::CheckedVO& checked, uint64_t ctr,
                          uint32_t creator) {
  return Transition(checked.root(), checked.root(), ctr, creator);
}

VoChain::VoChain(const mtree::TreeParams& params, uint32_t user, uint64_t ctr,
                 uint32_t creator, uint64_t gctr)
    : params_(params),
      user_(user),
      ctr_(ctr),
      creator_(creator),
      gctr_(gctr) {}

Status VoChain::Link(const util::Tainted<mtree::PointVO>& vo) {
  TCVS_SPAN("mtree.vo.verify_point");
  TCVS_ASSIGN_OR_RETURN(mtree::CheckedVO checked, mtree::CheckedVO::Check(vo));
  if (linked_ == 0) {
    pre_root_ = checked.root();
    root_ = checked.root();
  } else if (checked.root() != root_) {
    const std::string detail =
        "verification-object chain broken at sub-op " + std::to_string(linked_);
    util::AuditEvent event(util::AuditEventKind::kVoMismatch);
    event.user = user_;
    event.ctr = ctr_;
    event.gctr = gctr_;
    event.expected_digest = root_;
    event.actual_digest = checked.root();
    event.detail = detail;
    util::AuditLog::Instance().Emit(std::move(event));
    return Status::DeviationDetected(detail);
  }
  ++linked_;
  current_ = std::move(checked);
  return Status::OK();
}

Result<std::optional<Bytes>> VoChain::Step(const ChainOp& op) {
  TCVS_CHECK(current_.has_value());
  const mtree::CheckedVO checked = std::move(*current_);
  current_.reset();
  if (op.apply && op.kind == ChainOp::Kind::kUpsert) {
    TCVS_SPAN("mtree.vo.apply_upsert");
    TCVS_ASSIGN_OR_RETURN(root_, checked.Upsert(params_, op.key, op.value));
  } else if (op.apply && op.kind == ChainOp::Kind::kDelete) {
    TCVS_SPAN("mtree.vo.apply_delete");
    TCVS_ASSIGN_OR_RETURN(std::optional<crypto::Digest> post,
                          checked.Delete(op.key));
    if (post.has_value()) root_ = std::move(*post);
  }
  return checked.Read(op.key);
}

Transition VoChain::Finish() && {
  TCVS_CHECK(linked_ > 0 && !current_.has_value());
  return Transition(std::move(pre_root_), std::move(root_), ctr_, creator_);
}

Registers::Registers(bool tagged_in)
    : sigma(crypto::kDigestSize, 0),
      last(InitialFingerprint(tagged_in)),
      tagged(tagged_in) {}

crypto::Digest Registers::Fingerprint(const crypto::Digest& root, uint64_t ctr,
                                      uint32_t creator) const {
  return tagged ? StateFingerprint(root, ctr, creator)
                : StateFingerprintUntagged(root, ctr);
}

Status Registers::CheckCounter(uint32_t user, uint64_t epoch, uint64_t ctr,
                               const crypto::Digest& pre_root,
                               uint32_t creator) const {
  if (ctr >= gctr) return Status::OK();
  util::AuditEvent event(util::AuditEventKind::kCounterRegression);
  event.user = user;
  event.ctr = ctr;
  event.gctr = gctr;
  event.epoch = epoch;
  event.detail = "server presented counter " + std::to_string(ctr) +
                 " after this user already saw " + std::to_string(gctr);
  util::AuditLog::Instance().Emit(event);
  // Both sides of the divergence — the fingerprint this user last trusted vs
  // the one the claimed state implies — so the forensic story matches what
  // sync-up fork detection logs.
  event.kind = util::AuditEventKind::kForkDetected;
  event.expected_digest = last;
  event.actual_digest = Fingerprint(pre_root, ctr, creator);
  event.detail = "counter regression fork: server resurrected ctr " +
                 std::to_string(ctr) + " behind this user's " +
                 std::to_string(gctr);
  util::AuditLog::Instance().Emit(std::move(event));
  return Status::DeviationDetected("stale counter " + std::to_string(ctr) +
                                   " (already saw " + std::to_string(gctr) +
                                   ")");
}

std::pair<crypto::Digest, crypto::Digest> Registers::Fold(
    const Transition& transition, uint32_t user) {
  crypto::Digest pre_fp = Fingerprint(transition.pre_root(), transition.ctr(),
                                      transition.creator());
  crypto::Digest post_fp =
      Fingerprint(transition.post_root(), transition.ctr() + 1, user);
  sigma = XorBytes(XorBytes(sigma, pre_fp), post_fp);
  last = post_fp;
  gctr = transition.ctr() + 1;
  ++lctr;
  return {std::move(pre_fp), std::move(post_fp)};
}

Bytes XorSum(const std::vector<Bytes>& sigmas) {
  Bytes x(crypto::kDigestSize, 0);
  for (const Bytes& s : sigmas) x = XorBytes(x, s);
  return x;
}

bool TelescopeCloses(const std::vector<Bytes>& starts,
                     const std::vector<Bytes>& lasts, const Bytes& sigma_xor) {
  for (const Bytes& start : starts) {
    for (const Bytes& last : lasts) {
      if (last.size() == start.size() && XorBytes(start, last) == sigma_xor) {
        return true;
      }
    }
  }
  return false;
}

void AuditSyncUp(bool closed, const util::AuditEvent& label, Bytes expected,
                 Bytes actual, const std::string& sync_name) {
  util::AuditEvent event = label;
  if (closed) {
    event.kind = util::AuditEventKind::kSyncUpPass;
    util::AuditLog::Instance().Emit(std::move(event));
    return;
  }
  event.kind = util::AuditEventKind::kSyncUpFail;
  event.detail =
      "sync-up check failed: no user's state explains the pooled reports";
  util::AuditLog::Instance().Emit(event);
  // The paper's fork signal: no (f₀ ⊕ last) accounts for the pooled XOR, so
  // at least two users were shown diverging histories.
  event.kind = util::AuditEventKind::kForkDetected;
  event.expected_digest = std::move(expected);
  event.actual_digest = std::move(actual);
  event.detail = "fork/partition detected at sync " + sync_name;
  util::AuditLog::Instance().Emit(std::move(event));
}

}  // namespace core
}  // namespace tcvs
