#include "crypto/translog.h"

#include <bit>
#include <cstring>

namespace tcvs {
namespace crypto {

namespace {

Digest HashChildren(const uint8_t* left, const uint8_t* right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left, kDigestSize);
  h.Update(right, kDigestSize);
  return h.Finish();
}

Digest HashChildren(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left);
  h.Update(right);
  return h.Finish();
}

// Largest power of two strictly less than n (n ≥ 2).
uint64_t SplitPoint(uint64_t n) { return std::bit_floor(n - 1); }

Digest EmptyRoot() { return Sha256::Hash(""); }

}  // namespace

Digest TransparencyLog::LeafHash(const Bytes& entry) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(&tag, 1);
  h.Update(entry);
  return h.Finish();
}

uint64_t TransparencyLog::Append(const Bytes& entry) {
  AppendLeafHash(LeafHash(entry));
  return size() - 1;
}

TransparencyLog TransparencyLog::FromLeafHashes(
    const std::vector<Digest>& leaves) {
  TransparencyLog log;
  if (!leaves.empty()) {
    log.slots_.reserve((2 * leaves.size() - 1) * kDigestSize);
  }
  for (const Digest& leaf : leaves) log.AppendLeafHash(leaf);
  return log;
}

void TransparencyLog::AppendLeafHash(const Digest& leaf) {
  const uint64_t end = size() + 1;
  slots_.resize((2 * end - 1) * kDigestSize);
  std::memcpy(&slots_[2 * (end - 1) * kDigestSize], leaf.data(), kDigestSize);
  // The new leaf completes one subtree per trailing one bit of its index.
  for (uint64_t w = 2; end % w == 0; w *= 2) {
    const uint64_t lo = end - w, half = w / 2;
    const Digest node = HashChildren(Node(lo, half), Node(lo + half, half));
    std::memcpy(&slots_[(2 * lo + w - 1) * kDigestSize], node.data(),
                kDigestSize);
  }
}

// Every range the RFC 6962 recursion reaches from [0, n) starts at a multiple
// of each power of two no larger than the range, so a power-of-two range is
// always one cached, complete subtree.
Digest TransparencyLog::SubtreeRoot(uint64_t lo, uint64_t hi) const {
  const uint64_t n = hi - lo;
  if (n == 0) return EmptyRoot();
  if (std::has_single_bit(n)) {
    const uint8_t* node = Node(lo, n);
    return Digest(node, node + kDigestSize);
  }
  uint64_t k = SplitPoint(n);
  return HashChildren(SubtreeRoot(lo, lo + k), SubtreeRoot(lo + k, hi));
}

Digest TransparencyLog::Root() const { return SubtreeRoot(0, size()); }

Result<Digest> TransparencyLog::RootAt(uint64_t n) const {
  if (n > size()) return Status::InvalidArgument("RootAt past log size");
  return SubtreeRoot(0, n);
}

void TransparencyLog::SubtreeInclusion(uint64_t index, uint64_t lo, uint64_t hi,
                                       std::vector<Digest>* proof) const {
  const uint64_t n = hi - lo;
  if (n == 1) return;
  uint64_t k = SplitPoint(n);
  if (index < k) {
    SubtreeInclusion(index, lo, lo + k, proof);
    proof->push_back(SubtreeRoot(lo + k, hi));
  } else {
    SubtreeInclusion(index - k, lo + k, hi, proof);
    proof->push_back(SubtreeRoot(lo, lo + k));
  }
}

Result<std::vector<Digest>> TransparencyLog::InclusionProof(uint64_t index,
                                                            uint64_t n) const {
  if (n > size()) return Status::InvalidArgument("proof past log size");
  if (index >= n) return Status::InvalidArgument("index outside the log");
  std::vector<Digest> proof;
  SubtreeInclusion(index, 0, n, &proof);
  return proof;
}

void TransparencyLog::SubtreeConsistency(uint64_t m, uint64_t lo, uint64_t hi,
                                         bool lo_is_old,
                                         std::vector<Digest>* proof) const {
  const uint64_t n = hi - lo;
  if (m == n) {
    if (!lo_is_old) proof->push_back(SubtreeRoot(lo, hi));
    return;
  }
  uint64_t k = SplitPoint(n);
  if (m <= k) {
    SubtreeConsistency(m, lo, lo + k, lo_is_old, proof);
    proof->push_back(SubtreeRoot(lo + k, hi));
  } else {
    SubtreeConsistency(m - k, lo + k, hi, false, proof);
    proof->push_back(SubtreeRoot(lo, lo + k));
  }
}

Result<std::vector<Digest>> TransparencyLog::ConsistencyProof(uint64_t m,
                                                              uint64_t n) const {
  if (n > size()) return Status::InvalidArgument("proof past log size");
  if (m > n) return Status::InvalidArgument("old size exceeds new size");
  std::vector<Digest> proof;
  if (m == 0 || m == n) return proof;  // Trivial cases need no proof.
  SubtreeConsistency(m, 0, n, /*lo_is_old=*/true, &proof);
  return proof;
}

Status TransparencyLog::VerifyInclusion(const Bytes& entry, uint64_t index,
                                        uint64_t n, const Digest& root,
                                        const std::vector<Digest>& proof) {
  if (index >= n) return Status::InvalidArgument("index outside the log");
  uint64_t fn = index;
  uint64_t sn = n - 1;
  Digest r = LeafHash(entry);
  for (const Digest& p : proof) {
    if (p.size() != kDigestSize) {
      return Status::InvalidArgument("malformed proof digest");
    }
    if (sn == 0) return Status::VerificationFailure("inclusion proof too long");
    if ((fn & 1) == 1 || fn == sn) {
      r = HashChildren(p, r);
      if ((fn & 1) == 0) {
        // Right-border node: climb until the path turns left.
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = HashChildren(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  if (sn != 0) return Status::VerificationFailure("inclusion proof too short");
  if (r != root) {
    return Status::VerificationFailure("inclusion proof root mismatch");
  }
  return Status::OK();
}

Status TransparencyLog::VerifyConsistency(uint64_t m, uint64_t n,
                                          const Digest& old_root,
                                          const Digest& new_root,
                                          const std::vector<Digest>& proof) {
  if (m > n) return Status::InvalidArgument("old size exceeds new size");
  if (m == n) {
    if (!proof.empty()) {
      return Status::VerificationFailure("nonempty proof for equal sizes");
    }
    if (old_root != new_root) {
      return Status::VerificationFailure("equal sizes but different roots");
    }
    return Status::OK();
  }
  if (m == 0) {
    // Any log extends the empty log; the old root must be the empty root.
    if (!proof.empty()) {
      return Status::VerificationFailure("nonempty proof from empty log");
    }
    if (old_root != EmptyRoot()) {
      return Status::VerificationFailure("bad empty-log root");
    }
    return Status::OK();
  }

  uint64_t node = m - 1;
  uint64_t last = n - 1;
  while ((node & 1) == 1) {
    node >>= 1;
    last >>= 1;
  }
  size_t idx = 0;
  Digest new_hash, old_hash;
  if (node != 0) {
    if (proof.empty()) {
      return Status::VerificationFailure("consistency proof too short");
    }
    new_hash = old_hash = proof[idx++];
  } else {
    new_hash = old_hash = old_root;
  }
  for (; idx < proof.size(); ++idx) {
    const Digest& p = proof[idx];
    if (p.size() != kDigestSize) {
      return Status::InvalidArgument("malformed proof digest");
    }
    if (last == 0) {
      return Status::VerificationFailure("consistency proof too long");
    }
    if ((node & 1) == 1 || node == last) {
      old_hash = HashChildren(p, old_hash);
      new_hash = HashChildren(p, new_hash);
      if ((node & 1) == 0) {
        while (node != 0 && (node & 1) == 0) {
          node >>= 1;
          last >>= 1;
        }
      }
    } else {
      new_hash = HashChildren(new_hash, p);
    }
    node >>= 1;
    last >>= 1;
  }
  if (last != 0) return Status::VerificationFailure("consistency proof too short");
  if (old_hash != old_root) {
    return Status::VerificationFailure("consistency proof old-root mismatch");
  }
  if (new_hash != new_root) {
    return Status::VerificationFailure("consistency proof new-root mismatch");
  }
  return Status::OK();
}

}  // namespace crypto
}  // namespace tcvs
