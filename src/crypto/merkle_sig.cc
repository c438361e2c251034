#include "crypto/merkle_sig.h"

#include "crypto/hmac.h"
#include "util/serde.h"

namespace tcvs {
namespace crypto {

namespace {
// Domain-separation tag for per-leaf seeds ("mss\0").
constexpr uint64_t kMssDomain = 0x6d7373ULL;

Digest LeafFromWotsPk(const Bytes& wots_pk) {
  // Domain-separated: leaf = H(0x00 ‖ pk); internal = H(0x01 ‖ l ‖ r).
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(&tag, 1);
  h.Update(wots_pk);
  return h.Finish();
}

Digest InternalNode(const Digest& l, const Digest& r) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(l);
  h.Update(r);
  return h.Finish();
}
}  // namespace

Bytes MerkleSigner::LeafSeed(uint64_t leaf) const {
  return Prf2(seed_, kMssDomain, leaf);
}

MerkleSigner::MerkleSigner(const Bytes& seed, int height)
    : seed_(seed), height_(height) {
  const uint64_t n_leaves = 1ULL << height_;
  levels_.resize(height_ + 1);
  levels_[0].reserve(n_leaves);
  for (uint64_t i = 0; i < n_leaves; ++i) {
    WinternitzSigner wots(LeafSeed(i));
    levels_[0].push_back(LeafFromWotsPk(wots.public_key()));
  }
  for (int lvl = 1; lvl <= height_; ++lvl) {
    const auto& below = levels_[lvl - 1];
    levels_[lvl].reserve(below.size() / 2);
    for (size_t i = 0; i + 1 < below.size(); i += 2) {
      levels_[lvl].push_back(InternalNode(below[i], below[i + 1]));
    }
  }
  root_ = levels_[height_][0];
}

Result<Bytes> MerkleSigner::Sign(const Bytes& message) {
  const uint64_t n_leaves = 1ULL << height_;
  if (next_leaf_ >= n_leaves) {
    return Status::FailedPrecondition("MSS key exhausted after " +
                                      std::to_string(n_leaves) + " signatures");
  }
  const uint64_t leaf = next_leaf_++;
  WinternitzSigner wots(LeafSeed(leaf));
  TCVS_ASSIGN_OR_RETURN(Bytes wots_sig, wots.Sign(message));

  util::Writer w;
  w.PutU8(kWotsW);
  w.PutU64(leaf);
  w.PutBytes(wots_sig);
  // Authentication path: sibling at every level.
  uint64_t idx = leaf;
  for (int lvl = 0; lvl < height_; ++lvl) {
    uint64_t sibling = idx ^ 1;
    w.PutRaw(levels_[lvl][sibling]);
    idx >>= 1;
  }
  return w.Take();
}

Status MerkleSigner::VerifySignature(const Bytes& public_key,
                                     const Bytes& message, const Bytes& signature) {
  util::Reader r(signature);
  TCVS_ASSIGN_OR_RETURN(uint8_t w, r.GetU8());
  if (w != kWotsW) {
    return Status::InvalidArgument("unsupported Winternitz parameter in signature");
  }
  TCVS_ASSIGN_OR_RETURN(uint64_t leaf, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(Bytes wots_sig, r.GetBytes());
  // Remaining bytes are the auth path; length tells us the tree height.
  if (r.remaining() % kDigestSize != 0) {
    return Status::InvalidArgument("malformed MSS authentication path");
  }
  const size_t height = r.remaining() / kDigestSize;
  if (height > 63) {
    return Status::InvalidArgument("MSS tree height too large");
  }
  if (leaf >= (1ULL << height)) {
    return Status::InvalidArgument("MSS leaf index out of range for tree height");
  }
  TCVS_ASSIGN_OR_RETURN(Bytes auth_path, r.GetRaw(height * kDigestSize));
  TCVS_ASSIGN_OR_RETURN(
      Bytes wots_pk, WinternitzSigner::PublicKeyFromSignature(message, wots_sig));
  if (public_key.size() != kDigestSize) {
    return Status::InvalidArgument("MSS public key must be 32 bytes");
  }
  Digest node = LeafFromWotsPk(wots_pk);
  for (size_t lvl = 0; lvl < height; ++lvl) {
    Digest sibling(auth_path.begin() + lvl * kDigestSize,
                   auth_path.begin() + (lvl + 1) * kDigestSize);
    node = (leaf & 1) ? InternalNode(sibling, node) : InternalNode(node, sibling);
    leaf >>= 1;
  }
  if (!util::ConstantTimeEqual(node, public_key)) {
    return Status::VerificationFailure("MSS root mismatch");
  }
  return Status::OK();
}

}  // namespace crypto
}  // namespace tcvs
