#include "crypto/winternitz.h"

#include "crypto/hmac.h"

namespace tcvs {
namespace crypto {

namespace {

// Domain-separation tag for WOTS chain starts ("w0ts" in ASCII).
constexpr uint64_t kWotsDomain = 0x77307473ULL;

std::vector<Digest> ChainStarts(const Bytes& seed) {
  std::vector<Digest> chains;
  chains.reserve(kWotsChains);
  for (size_t i = 0; i < kWotsChains; ++i) {
    chains.push_back(Prf2(seed, kWotsDomain, i));
  }
  return chains;
}

// Compresses the chain ends into the 32-byte public key: H(end₀ ‖ … ‖ endₙ).
Bytes FoldPublicKey(const std::vector<Digest>& ends) {
  Sha256 h;
  for (const Digest& end : ends) h.Update(end);
  return h.Finish();
}

}  // namespace

void AdvanceChains(std::vector<Digest>* chains, std::vector<uint32_t> steps) {
  std::vector<const Bytes*> active;
  std::vector<size_t> index;
  std::vector<Digest> out;
  active.reserve(chains->size());
  index.reserve(chains->size());
  for (;;) {
    active.clear();
    index.clear();
    for (size_t i = 0; i < chains->size(); ++i) {
      if (steps[i] > 0) {
        active.push_back(&(*chains)[i]);
        index.push_back(i);
      }
    }
    if (active.empty()) return;
    out.resize(active.size());
    HashManyInto(active.data(), active.size(), out.data());
    for (size_t k = 0; k < active.size(); ++k) {
      (*chains)[index[k]] = std::move(out[k]);
      --steps[index[k]];
    }
  }
}

std::vector<uint32_t> WinternitzSigner::Chunks(const Digest& md) {
  std::vector<uint32_t> chunks;
  chunks.reserve(kWotsChains);
  // Message chunks: the digest's nibbles, high nibble first.
  for (uint8_t byte : md) {
    chunks.push_back(byte >> kWotsW);
    chunks.push_back(byte & kWotsChainLen);
  }
  // Checksum chunks (base-16 little-endian digits of the checksum).
  uint32_t checksum = 0;
  for (uint32_t c : chunks) checksum += kWotsChainLen - c;
  for (size_t i = 0; i < kWotsChecksumChains; ++i) {
    chunks.push_back(checksum & kWotsChainLen);
    checksum >>= kWotsW;
  }
  return chunks;
}

WinternitzSigner::WinternitzSigner(const Bytes& seed) : seed_(seed) {
  std::vector<Digest> chains = ChainStarts(seed_);
  AdvanceChains(&chains, std::vector<uint32_t>(kWotsChains, kWotsChainLen));
  public_key_ = FoldPublicKey(chains);
}

Result<Bytes> WinternitzSigner::Sign(const Bytes& message) {
  if (used_) {
    return Status::FailedPrecondition("Winternitz key already used");
  }
  used_ = true;
  std::vector<Digest> chains = ChainStarts(seed_);
  AdvanceChains(&chains, Chunks(Sha256::Hash(message)));
  Bytes sig;
  sig.reserve(chains.size() * kDigestSize);
  for (const auto& chain : chains) util::Append(&sig, chain);
  return sig;
}

Result<Bytes> WinternitzSigner::PublicKeyFromSignature(const Bytes& message,
                                                       const Bytes& signature) {
  // Each chain still needs 15 − chunk steps to reach its end.
  std::vector<uint32_t> steps = Chunks(Sha256::Hash(message));
  if (signature.size() != kWotsChains * kDigestSize) {
    return Status::InvalidArgument("Winternitz signature has wrong size");
  }
  std::vector<Digest> chains;
  chains.reserve(kWotsChains);
  for (size_t i = 0; i < kWotsChains; ++i) {
    chains.emplace_back(signature.begin() + i * kDigestSize,
                        signature.begin() + (i + 1) * kDigestSize);
    steps[i] = kWotsChainLen - steps[i];
  }
  AdvanceChains(&chains, std::move(steps));
  return FoldPublicKey(chains);
}

}  // namespace crypto
}  // namespace tcvs
