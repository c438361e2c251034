#include "crypto/signature.h"

#include <iterator>
#include <optional>
#include <string>

#include "crypto/merkle_sig.h"
#include "crypto/winternitz.h"
#include "util/audit.h"
#include "util/cost.h"

namespace tcvs {
namespace crypto {

std::string_view SchemeIdToString(SchemeId id) {
  switch (id) {
    case SchemeId::kWinternitz:
      return "Winternitz";
    case SchemeId::kMerkleSig:
      return "MerkleSig";
  }
  return "Unknown";
}

namespace {

/// Every failed verification, whatever the scheme, is security-significant:
/// this dispatcher is the one choke point all schemes pass through.
Status Audited(SchemeId scheme, Status st) {
  if (!st.ok()) {
    util::AuditEvent event(util::AuditEventKind::kSignatureVerifyFailure);
    event.detail =
        std::string(SchemeIdToString(scheme)) + ": " + st.ToString();
    util::AuditLog::Instance().Emit(std::move(event));
  }
  return st;
}

}  // namespace

Status Verify(SchemeId scheme, const Bytes& public_key, const Bytes& message,
              const Bytes& signature) {
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->sig_verifies++;
  }
  switch (scheme) {
    case SchemeId::kWinternitz:
      return Audited(scheme, WinternitzSigner::VerifySignature(
                                 public_key, message, signature));
    case SchemeId::kMerkleSig:
      return Audited(scheme, MerkleSigner::VerifySignature(public_key, message,
                                                           signature));
  }
  return Status::InvalidArgument("unknown signature scheme");
}

std::vector<Status> VerifyBatch(const std::vector<VerifyRequest>& requests) {
  std::vector<Status> results(requests.size(), Status::OK());

  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->sig_verifies += requests.size();
  }

  // Hash-based signatures contribute their chains to one shared pool; a
  // pending item remembers its slice of the pool and (for MSS) the parsed
  // envelope needed to finish after the walk.
  struct Pending {
    size_t request = 0;
    size_t first_chain = 0;
    size_t n_chains = 0;
    std::optional<MerkleSigner::PreparedSignature> mss;
  };
  std::vector<Digest> pool;
  std::vector<uint32_t> steps;
  std::vector<Pending> pending;

  auto admit = [&](size_t i, WotsChainWalk walk,
                   std::optional<MerkleSigner::PreparedSignature> mss) {
    pending.push_back(Pending{i, pool.size(), walk.chains.size(), std::move(mss)});
    pool.insert(pool.end(), std::make_move_iterator(walk.chains.begin()),
                std::make_move_iterator(walk.chains.end()));
    steps.insert(steps.end(), walk.steps.begin(), walk.steps.end());
  };

  for (size_t i = 0; i < requests.size(); ++i) {
    const VerifyRequest& req = requests[i];
    switch (req.scheme) {
      case SchemeId::kWinternitz: {
        auto walk = WinternitzSigner::WalkFromSignature(*req.message,
                                                        *req.signature);
        if (!walk.ok()) {
          results[i] = Audited(req.scheme, walk.status());
          break;
        }
        admit(i, std::move(*walk), std::nullopt);
        break;
      }
      case SchemeId::kMerkleSig: {
        auto prepared = MerkleSigner::Prepare(*req.signature);
        if (!prepared.ok()) {
          results[i] = Audited(req.scheme, prepared.status());
          break;
        }
        auto walk = WinternitzSigner::WalkFromSignature(
            *req.message, prepared->wots_sig, prepared->params);
        if (!walk.ok()) {
          results[i] = Audited(req.scheme, walk.status());
          break;
        }
        admit(i, std::move(*walk), std::move(*prepared));
        break;
      }
      default:
        results[i] = Status::InvalidArgument("unknown signature scheme");
        break;
    }
  }

  // One lock-step walk over every chain of every admitted signature.
  AdvanceChains(&pool, std::move(steps));

  for (const Pending& p : pending) {
    const VerifyRequest& req = requests[p.request];
    Bytes wots_pk =
        WinternitzSigner::FoldPublicKey(pool.data() + p.first_chain, p.n_chains);
    Status st;
    if (p.mss.has_value()) {
      st = MerkleSigner::FinishVerify(*req.public_key, *p.mss, wots_pk);
    } else if (util::ConstantTimeEqual(wots_pk, *req.public_key)) {
      st = Status::OK();
    } else {
      st = Status::VerificationFailure("Winternitz signature mismatch");
    }
    results[p.request] = Audited(req.scheme, std::move(st));
  }
  return results;
}

}  // namespace crypto
}  // namespace tcvs
