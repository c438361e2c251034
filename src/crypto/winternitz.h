#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace crypto {

/// \name The one Winternitz parameter set.
/// Each chain consumes w = 4 bits of the message digest and is 2^w − 1 = 15
/// hash steps long: 64 message chains, plus 3 checksum chains for the
/// largest checksum 64 · 15 = 960 < 16³. A signature is 67 digests.
/// @{
inline constexpr int kWotsW = 4;
inline constexpr uint32_t kWotsChainLen = (1u << kWotsW) - 1;
inline constexpr size_t kWotsMessageChains = 256 / kWotsW;
inline constexpr size_t kWotsChecksumChains = 3;
inline constexpr size_t kWotsChains = kWotsMessageChains + kWotsChecksumChains;
static_assert(kWotsMessageChains * kWotsChainLen <
              (1u << (kWotsW * kWotsChecksumChains)));
/// @}

/// \brief Advances chains[i] by steps[i] hash applications: chains[i] ←
/// cᵏ(chains[i]) with k = steps[i]. The chains are independent, so instead
/// of walking them one at a time, every still-active chain takes one step
/// per round through the multi-buffer SHA-256 engine (HashManyInto) — the
/// amortization behind WOTS keygen, signing and verification. The result is
/// bit-identical to the sequential walk.
void AdvanceChains(std::vector<Digest>* chains, std::vector<uint32_t> steps);

/// \brief A Winternitz one-time key (WOTS) with a *compressed* 32-byte
/// public key: pk = H(end₀ ‖ end₁ ‖ … ‖ end₆₆).
///
/// It is the leaf key of the Merkle signature scheme (merkle_sig.h), which
/// checks a WOTS signature by recomputing the public key it implies and
/// walking that key up the Merkle tree.
class WinternitzSigner {
 public:
  explicit WinternitzSigner(const Bytes& seed);

  /// Signs `message` (hashed internally). A one-time key: a second call
  /// fails with FailedPrecondition.
  Result<Bytes> Sign(const Bytes& message);
  const Bytes& public_key() const { return public_key_; }

  /// Recomputes the compressed public key implied by `signature` on
  /// `message`. The caller compares it against a trusted key through a
  /// Merkle authentication path.
  static Result<Bytes> PublicKeyFromSignature(const Bytes& message,
                                              const Bytes& signature);

  /// Splits H(message) into base-16 chunks followed by checksum chunks.
  /// Exposed for tests.
  static std::vector<uint32_t> Chunks(const Digest& md);

 private:
  Bytes seed_;
  Bytes public_key_;  // 32 bytes, compressed.
  bool used_ = false;
};

}  // namespace crypto
}  // namespace tcvs
