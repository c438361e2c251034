#include "crypto/signature.h"

#include <string>

#include "crypto/merkle_sig.h"
#include "util/audit.h"

namespace tcvs {
namespace crypto {

Status Verify(const Bytes& public_key, const Bytes& message,
              const Bytes& signature) {
  Status st = MerkleSigner::VerifySignature(public_key, message, signature);
  // Every failed verification is security-significant.
  if (!st.ok()) {
    util::AuditEvent event(util::AuditEventKind::kSignatureVerifyFailure);
    event.detail = "MerkleSig: " + st.ToString();
    util::AuditLog::Instance().Emit(std::move(event));
  }
  return st;
}

}  // namespace crypto
}  // namespace tcvs
