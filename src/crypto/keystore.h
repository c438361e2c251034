#pragma once

#include <map>

#include "crypto/merkle_sig.h"
#include "crypto/signature.h"
#include "util/untrusted.h"

namespace tcvs {
namespace crypto {

/// Taint-verifier token: the value's signature was checked against a
/// certificate in a KeyStore (KeyStore::VerifyFrom succeeded over the
/// value's canonical preimage). See util/untrusted.h.
struct SignatureVerified {
  TCVS_TAINT_VERIFIER(SignatureVerified);
};

/// Numeric identity of a principal (user id in the protocols).
using PrincipalId = uint32_t;

/// \brief A certificate binding a principal to a public key, signed by the
/// certificate authority (the paper assumes an X.509-style PKI [4]; this is
/// the minimal equivalent).
struct Certificate {
  PrincipalId principal = 0;
  Bytes public_key;  // MSS root.
  Bytes ca_signature;  // CA's signature over Preimage().

  /// Canonical byte string the CA signs.
  Bytes Preimage() const;
};

/// \brief Issues certificates. Holds the CA's (MSS) signing key; its root
/// public key is distributed out of band to every user.
class CertificateAuthority {
 public:
  /// \param seed  deterministic key material
  /// \param height  MSS tree height; the CA can issue 2^height certificates.
  explicit CertificateAuthority(const Bytes& seed, int height = 8);

  /// Issues a certificate for `principal` with the given key.
  Result<Certificate> Issue(PrincipalId principal, const Bytes& public_key);

  /// The CA's root verification key.
  const Bytes& public_key() const { return signer_.public_key(); }

 private:
  MerkleSigner signer_;
};

/// \brief Client-side store of verified certificates, keyed by principal.
///
/// Add() verifies the CA signature before accepting, so everything in the
/// store is trusted; VerifyFrom() then checks a message signature attributed
/// to a principal.
class KeyStore {
 public:
  explicit KeyStore(Bytes ca_public_key) : ca_public_key_(std::move(ca_public_key)) {}

  /// Verifies the certificate against the CA key and stores it.
  /// \return VerificationFailure if the CA signature is invalid;
  ///         AlreadyExists if a different key is already bound.
  Status Add(const Certificate& cert);

  /// Looks up the certificate for `principal`.
  Result<Certificate> Get(PrincipalId principal) const;

  /// Verifies `signature` over `message` as coming from `principal`.
  /// Success justifies endorsing the signed value with SignatureVerified.
  Status VerifyFrom(PrincipalId principal, const Bytes& message,
                    const Bytes& signature) const;

  size_t size() const { return certs_.size(); }

 private:
  Bytes ca_public_key_;
  std::map<PrincipalId, Certificate> certs_;
};

}  // namespace crypto
}  // namespace tcvs
