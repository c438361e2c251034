#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mtree/vo.h"

namespace tcvs {
namespace mtree {

/// \brief The server-side Merkle B⁺-tree (paper §4.1): a B⁺-tree whose every
/// node carries a digest; leaves digest their (key, H(value)) entries and
/// internal nodes digest their separators and children digests. The root
/// digest M(D) authenticates the entire database.
///
/// Mutating operations return the *pre-state* verification object for the
/// touched path; a client holding the trusted pre-state root digest verifies
/// it and replays the mutation locally (vo.h) to learn the post-state root,
/// so the split/collapse rules here and in vo.cc are deliberately identical
/// and are property-tested against each other.
///
/// Deletions unlink empty leaves and collapse single-child internal nodes but
/// do not rebalance; CVS workloads are insert/update heavy, so the height
/// bound O(log n) holds where it matters. This substitution is recorded in
/// DESIGN.md.
class MerkleBTree {
 private:
  struct Node;  // Declared early: Cursor below holds Node pointers.

 public:
  explicit MerkleBTree(TreeParams params = TreeParams{});
  ~MerkleBTree();

  MerkleBTree(const MerkleBTree&) = delete;
  MerkleBTree& operator=(const MerkleBTree&) = delete;
  MerkleBTree(MerkleBTree&&) noexcept;
  MerkleBTree& operator=(MerkleBTree&&) noexcept;

  const TreeParams& params() const { return params_; }

  /// Current root digest M(D).
  const Digest& root_digest() const { return root_digest_; }

  /// Number of entries.
  size_t size() const { return size_; }

  /// Longest root-to-leaf path length (1 for a lone leaf).
  size_t height() const;

  /// \name Unauthenticated access (trusted-server path).
  /// @{
  std::optional<Bytes> Get(const Bytes& key) const;
  std::vector<std::pair<Bytes, Bytes>> Range(const Bytes& lo, const Bytes& hi) const;
  std::vector<std::pair<Bytes, Bytes>> Items() const;
  /// @}

  /// Builds the verification object for a point query on `key` against the
  /// current state: the fully expanded root-to-leaf path, including the
  /// value when the key is present (membership) or the full leaf otherwise
  /// (non-membership).
  PointVO ProvePoint(const Bytes& key) const;

  /// Builds the verification object for a range scan over [lo, hi]: the
  /// minimal covering subtree with values attached to in-range entries.
  RangeVO ProveRange(const Bytes& lo, const Bytes& hi) const;

  /// Inserts or updates (key → value). Returns the pre-state PointVO for the
  /// key so the requesting client can verify and replay.
  PointVO Upsert(const Bytes& key, const Bytes& value);

  /// Removes `key` if present (no-op otherwise). Returns the pre-state
  /// PointVO; `*found` reports whether the key existed.
  PointVO Delete(const Bytes& key, bool* found);

  /// \brief Ordered forward cursor over the tree's entries (RocksDB-style
  /// iterator). Invalidated by any mutation of the tree.
  class Cursor {
   public:
    /// Positions at the first entry ≥ `key`.
    void Seek(const Bytes& key);
    void SeekToFirst();
    bool Valid() const { return !stack_.empty(); }
    void Next();
    /// Current entry; undefined unless Valid().
    const Bytes& key() const;
    const Bytes& value() const;

   private:
    friend class MerkleBTree;
    explicit Cursor(const Node* root) : root_(root) {}
    void DescendToLeftmost(const Node* node);

    const Node* root_;
    // Path of (node, child/entry index); top is the leaf position.
    std::vector<std::pair<const Node*, size_t>> stack_;
  };

  /// Creates a cursor (initially not Valid; call Seek*/SeekToFirst).
  Cursor NewCursor() const;

  /// Validates structural invariants (sorted keys, separator bounds, digest
  /// cache consistency, occupancy limits). For tests.
  Status CheckInvariants() const;

  /// Deep copy with identical contents (and therefore an identical root
  /// digest). Used by adversarial servers to fork the database state.
  MerkleBTree Clone() const;

  /// Structural snapshot of the whole tree (keys, values, shape). The shape
  /// is preserved exactly, so the restored tree has the same root digest —
  /// a server can persist and restart without clients noticing.
  Bytes Serialize() const;

  /// Serialize()'s bytes, streamed: handed to `sink` in chunks of about
  /// kSerializeChunkBytes (a chunk ends after the entry that filled it), so
  /// a snapshot of any size costs one chunk of memory. Returns the first
  /// error `sink` returns.
  Status SerializeTo(const std::function<Status(const Bytes&)>& sink) const;
  static constexpr size_t kSerializeChunkBytes = 64 << 10;

  /// Restores a tree from Serialize() output, recomputing and validating
  /// all digests. \return Corruption/InvalidArgument on malformed input.
  // taint-exempt: local-origin — restores the server's own persisted tree;
  // every digest is recomputed and validated during the parse.
  static Result<MerkleBTree> Deserialize(const Bytes& data,
                                         TreeParams params = TreeParams{});

  /// Builds a tree from strictly-sorted unique (key, value) pairs by packing
  /// nodes left to right — O(n) construction (vs O(n log n) incremental
  /// inserts) with fully-packed leaves.
  /// \return InvalidArgument when items are unsorted or duplicated.
  static Result<MerkleBTree> BulkLoad(
      const std::vector<std::pair<Bytes, Bytes>>& items,
      TreeParams params = TreeParams{});

 private:


  void RecomputeDigest(Node* node);
  NodeView BuildPointView(const Node* node, const Bytes& key) const;
  NodeView BuildRangeView(const Node* node, const Bytes& lo, const Bytes& hi) const;

  // Returns split info when the child overflowed.
  struct SplitResult;
  std::optional<SplitResult> UpsertRec(Node* node, const Bytes& key,
                                       const Bytes& value);
  // Returns true if `node` became an empty leaf and must be unlinked.
  bool DeleteRec(Node* node, const Bytes& key, bool* found);

  TreeParams params_;
  std::unique_ptr<Node> root_;
  Digest root_digest_;
  size_t size_ = 0;
};

}  // namespace mtree
}  // namespace tcvs
