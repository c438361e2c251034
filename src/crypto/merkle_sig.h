#pragma once

#include <vector>

#include "crypto/winternitz.h"

namespace tcvs {
namespace crypto {

/// \brief Merkle signature scheme (MSS): a many-time signature built from
/// 2^height Winternitz one-time keys whose compressed public keys are the
/// leaves of a hash tree; the tree root is the (32-byte) public key.
///
/// This is the construction of the paper's reference [9] (Merkle, CRYPTO'89)
/// and the PKI instantiation used by Protocol I: existential unforgeability
/// from a hash function alone.
///
/// The signer is stateful: every Sign consumes the next leaf, and the key is
/// exhausted after 2^height signatures (Sign then fails with
/// FailedPrecondition). Each signature embeds the Winternitz width (always
/// 4), the leaf index, the WOTS signature, and the authentication path, so
/// verification needs only the 32-byte root.
class MerkleSigner {
 public:
  /// Deterministically generates all 2^height one-time keys from `seed` and
  /// builds the tree. Keygen cost is O(2^height) WOTS keygens.
  MerkleSigner(const Bytes& seed, int height);

  /// Signs `message` with the next unused leaf.
  Result<Bytes> Sign(const Bytes& message);
  /// The 32-byte root, distributed through certificates.
  const Bytes& public_key() const { return root_; }
  uint64_t remaining_signatures() const {
    return (1ULL << height_) - next_leaf_;
  }

  int height() const { return height_; }

  /// Verifies an MSS signature against the 32-byte root public key. Not
  /// audited; the protocols call the audited crypto::Verify.
  static Status VerifySignature(const Bytes& public_key, const Bytes& message,
                                const Bytes& signature);

 private:
  Bytes LeafSeed(uint64_t leaf) const;

  Bytes seed_;
  int height_;
  uint64_t next_leaf_ = 0;
  // levels_[0] = leaves (2^h digests), levels_[h] = {root}.
  std::vector<std::vector<Digest>> levels_;
  Bytes root_;
};

}  // namespace crypto
}  // namespace tcvs
