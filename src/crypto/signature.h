#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace crypto {

/// Identifies a signature scheme on the wire.
enum class SchemeId : uint8_t {
  // Values are certificate wire bytes; 1 is unassigned.
  kWinternitz = 2,
  kMerkleSig = 3,
};

std::string_view SchemeIdToString(SchemeId id);

/// \brief A signing key. Hash-based schemes are *stateful*: each Sign call
/// may consume a one-time key, so Sign is non-const and can fail with
/// FailedPrecondition once the key is exhausted.
class Signer {
 public:
  virtual ~Signer() = default;

  /// Signs `message` (arbitrary length; schemes hash it internally).
  virtual Result<Bytes> Sign(const Bytes& message) = 0;

  /// Serialized public key for distribution / certificates.
  virtual const Bytes& public_key() const = 0;

  virtual SchemeId scheme() const = 0;

  /// How many more messages this key can sign (one-time keys return 1 or 0;
  /// many-time keys return the remaining leaf count).
  virtual uint64_t remaining_signatures() const = 0;
};

/// \brief Verifies `signature` over `message` under `public_key` for the
/// scheme identified by `scheme`.
///
/// \return OK if valid; VerificationFailure if the signature does not verify;
///         InvalidArgument if the signature is malformed.
Status Verify(SchemeId scheme, const Bytes& public_key, const Bytes& message,
              const Bytes& signature);

/// One item of a VerifyBatch call. Pointers (never null) instead of copies:
/// a batch borrows its inputs for the duration of the call only.
struct VerifyRequest {
  SchemeId scheme = SchemeId::kMerkleSig;
  const Bytes* public_key = nullptr;
  const Bytes* message = nullptr;
  const Bytes* signature = nullptr;
};

/// \brief Verifies many signatures in one pass. Semantically identical to
/// calling Verify per request — results[i] is exactly what Verify would
/// return for requests[i], and every failure is audited through the same
/// choke point — but the hash-chain walks of all Winternitz and MSS
/// signatures are pooled and advanced in lock-step through the multi-buffer
/// SHA-256 engine, so a batch of N costs far fewer compression calls than
/// N sequential verifications. Each message's digest is computed once and
/// shared across that signature's chains.
std::vector<Status> VerifyBatch(const std::vector<VerifyRequest>& requests);

}  // namespace crypto
}  // namespace tcvs
