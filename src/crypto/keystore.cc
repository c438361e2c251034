#include "crypto/keystore.h"

#include "util/serde.h"

namespace tcvs {
namespace crypto {

Bytes Certificate::Preimage() const {
  util::Writer w;
  w.PutString("tcvs-cert-v1");
  w.PutU32(principal);
  w.PutBytes(public_key);
  return w.Take();
}

CertificateAuthority::CertificateAuthority(const Bytes& seed, int height)
    : signer_(seed, height) {}

Result<Certificate> CertificateAuthority::Issue(PrincipalId principal,
                                                const Bytes& public_key) {
  Certificate cert;
  cert.principal = principal;
  cert.public_key = public_key;
  TCVS_ASSIGN_OR_RETURN(cert.ca_signature, signer_.Sign(cert.Preimage()));
  return cert;
}

Status KeyStore::Add(const Certificate& cert) {
  TCVS_RETURN_NOT_OK(
      Verify(ca_public_key_, cert.Preimage(), cert.ca_signature));
  auto it = certs_.find(cert.principal);
  if (it != certs_.end()) {
    if (it->second.public_key != cert.public_key) {
      return Status::AlreadyExists("principal " + std::to_string(cert.principal) +
                                   " already bound to a different key");
    }
    return Status::OK();
  }
  certs_.emplace(cert.principal, cert);
  return Status::OK();
}

Result<Certificate> KeyStore::Get(PrincipalId principal) const {
  auto it = certs_.find(principal);
  if (it == certs_.end()) {
    return Status::NotFound("no certificate for principal " +
                            std::to_string(principal));
  }
  return it->second;
}

Status KeyStore::VerifyFrom(PrincipalId principal, const Bytes& message,
                            const Bytes& signature) const {
  TCVS_ASSIGN_OR_RETURN(Certificate cert, Get(principal));
  return Verify(cert.public_key, message, signature);
}

}  // namespace crypto
}  // namespace tcvs
