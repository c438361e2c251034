#pragma once

#include <vector>

#include "crypto/sha256.h"
#include "util/result.h"
#include "util/untrusted.h"

namespace tcvs {
namespace crypto {

/// Taint-verifier token: a checkpoint reply passed
/// TransparencyLog::VerifyConsistency against the client's remembered
/// (size, root) checkpoint. See util/untrusted.h.
struct ConsistencyVerified {
  TCVS_TAINT_VERIFIER(ConsistencyVerified);
};

/// \brief An append-only Merkle log with inclusion and consistency proofs
/// (the Certificate-Transparency construction, RFC 6962 §2.1).
///
/// The trusted-CVS use: the untrusted server appends h(ctr ‖ M(D)) after
/// every transaction. A client that remembers one (size, root) checkpoint
/// can later demand a *consistency proof* that today's log extends it —
/// rewriting or forking history then requires breaking the hash function.
/// Inclusion proofs let an auditor verify "state X was the database at
/// counter c" — the verifiable complement of the journal-based fault
/// localization (paper future-work item 1).
///
/// Domain separation follows RFC 6962: leaf hash = H(0x00 ‖ entry),
/// node hash = H(0x01 ‖ left ‖ right). The empty log's root is H("").
///
/// Costs: the root of every complete, aligned power-of-two subtree is cached
/// as it completes (one amortised hash per Append), so Root and RootAt hash
/// only along the right spine — O(log n) — and each proof node is a cached
/// left subtree or a right-spine root: O(log² n) worst case per proof.
class TransparencyLog {
 public:
  TransparencyLog() = default;

  /// Appends an entry; returns its index.
  uint64_t Append(const Bytes& entry);

  uint64_t size() const { return (slots_.size() / kDigestSize + 1) / 2; }

  /// Root over the current log (Merkle Tree Hash of all entries).
  Digest Root() const;

  /// Root over the first `n` entries (n ≤ size()).
  Result<Digest> RootAt(uint64_t n) const;

  /// Audit path proving entry `index` is in the log of size `n`
  /// (RFC 6962 §2.1.1).
  Result<std::vector<Digest>> InclusionProof(uint64_t index, uint64_t n) const;

  /// Proof that the log of size `m` is a prefix of the log of size `n`
  /// (RFC 6962 §2.1.2), m ≤ n.
  Result<std::vector<Digest>> ConsistencyProof(uint64_t m, uint64_t n) const;

  /// \name Verifiers (pure functions; run by clients/auditors).
  /// @{
  /// Checks an inclusion proof for `entry` at `index` in a log of size `n`
  /// with root `root`.
  static Status VerifyInclusion(const Bytes& entry, uint64_t index, uint64_t n,
                                const Digest& root,
                                const std::vector<Digest>& proof);

  /// Checks that a log of size `n` with root `new_root` extends the log of
  /// size `m` with root `old_root`. Success justifies endorsing the
  /// checkpoint with ConsistencyVerified.
  static Status VerifyConsistency(
      uint64_t m, uint64_t n, const Digest& old_root, const Digest& new_root,
      const std::vector<Digest>& proof);
  /// @}

  /// Leaf hash H(0x00 ‖ entry), exposed for tests.
  static Digest LeafHash(const Bytes& entry);

  /// Leaf hash of entry `index` < size() (for persistence).
  Digest leaf_hash(uint64_t index) const {
    const uint8_t* leaf = Node(index, 1);
    return Digest(leaf, leaf + kDigestSize);
  }

  /// Reconstructs a log (and its node cache, in O(n)) from persisted leaf
  /// hashes of kDigestSize bytes each.
  static TransparencyLog FromLeafHashes(const std::vector<Digest>& leaves);

 private:
  void AppendLeafHash(const Digest& leaf);
  /// Root of the complete subtree over entries [lo, lo + width) (the leaf
  /// hash when width is 1), where width is a power of two dividing lo and
  /// lo + width ≤ size().
  const uint8_t* Node(uint64_t lo, uint64_t width) const {
    return &slots_[(2 * lo + width - 1) * kDigestSize];
  }
  Digest SubtreeRoot(uint64_t lo, uint64_t hi) const;  // Entries [lo, hi).
  void SubtreeInclusion(uint64_t index, uint64_t lo, uint64_t hi,
                        std::vector<Digest>* proof) const;
  void SubtreeConsistency(uint64_t m, uint64_t lo, uint64_t hi, bool lo_is_old,
                          std::vector<Digest>* proof) const;

  // Leaf hashes and the node cache: kDigestSize-byte slots in the tree's
  // in-order layout, where leaf i sits in slot 2i and the subtree
  // [lo, lo + w) in slot 2lo + w - 1. A log of n ≥ 1 entries has 2n - 1
  // slots; each inner slot is written once, when its subtree completes.
  std::vector<uint8_t> slots_;
};

}  // namespace crypto
}  // namespace tcvs
