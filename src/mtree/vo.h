#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/untrusted.h"

namespace tcvs {
namespace mtree {

using crypto::Digest;

/// Taint-verifier token: the value was endorsed by Merkle verification-object
/// checking — a CheckedVO pass whose digest matched a trusted root, then the
/// routed read or replay (see util/untrusted.h).
struct VoVerified {
  TCVS_TAINT_VERIFIER(VoVerified);
};

/// Fanout / node-size parameters of the Merkle B⁺-tree. Server and client
/// must agree on these: the client *replays* structural changes (splits,
/// collapses) when verifying updates, so the split thresholds are part of
/// the protocol.
struct TreeParams {
  /// Maximum number of (key,value) entries in a leaf before it splits.
  size_t max_leaf_entries = 8;
  /// Maximum number of separator keys in an internal node before it splits.
  size_t max_internal_keys = 8;

  bool operator==(const TreeParams&) const = default;
};

/// InvalidArgument unless both capacities are at least 2. Below that a split
/// yields an internal node with no separator, which the client's replay
/// rejects — an honest server would be accused.
Status ValidateTreeParams(const TreeParams& params);

struct NodeView;

/// \brief One leaf entry as it appears in a verification object: the key and
/// the hash of the value. Values themselves are only included where the
/// query requires them.
struct EntryView {
  Bytes key;
  Digest value_hash;
  /// Present for entries whose value the query returns (the queried key in a
  /// point read, all in-range entries in a range scan).
  std::optional<Bytes> value;

  bool operator==(const EntryView&) const = default;
};

/// \brief An untrusted, recursive view of a subtree, as shipped in a
/// verification object (paper §4.1: "the digests of the O(log n) siblings of
/// the affected nodes").
///
/// For a leaf: `entries` holds the full entry list. For an internal node:
/// `keys` holds all separators, `child_digests` all children digests, and
/// `expanded` maps child indices to recursively expanded views (only the
/// children the proof needs — one for a point path, several for a range).
///
/// Everything here is server-supplied and untrusted until
/// VerifiedDigest() links it back to a trusted root digest.
struct NodeView {
  bool is_leaf = true;
  std::vector<EntryView> entries;          // leaf only
  std::vector<Bytes> keys;                 // internal only
  std::vector<Digest> child_digests;       // internal only, size keys+1
  std::map<uint32_t, NodeView> expanded;   // internal only

  /// Recomputes this node's digest from the view contents, checking that
  /// every expanded child's recomputed digest matches the digest claimed in
  /// `child_digests`, and that structural invariants hold (sorted keys,
  /// digest sizes, child count).
  /// \return the digest, or VerificationFailure / InvalidArgument.
  Result<Digest> VerifiedDigest() const;
};

/// \brief Computes the digest of a leaf from its entry list.
Digest LeafDigest(const std::vector<EntryView>& entries);

/// \brief Computes the digest of an internal node from separators and child
/// digests.
Digest InternalDigest(const std::vector<Bytes>& keys,
                      const std::vector<Digest>& child_digests);

/// \brief Verification object for a point operation (read, update, insert,
/// delete): the root-to-leaf path for the key, with every node on the path
/// expanded. Doubles as a non-membership proof when the key is absent.
struct PointVO {
  NodeView root;

  Bytes Serialize() const;
  /// Parses server-supplied bytes; the result is quarantined until a verify
  /// call endorses it (hand the Tainted VO straight to CheckedVO::Check or a
  /// trusted-root entry point).
  static Result<util::Tainted<PointVO>> Deserialize(const Bytes& data);
};

/// \brief Verification object for a range scan: the minimal subtree covering
/// [lo, hi], with values attached to in-range entries.
struct RangeVO {
  NodeView root;

  Bytes Serialize() const;
  /// Parses server-supplied bytes; quarantined until CheckedVO::Check or
  /// VerifyRangeRead endorses it.
  static Result<util::Tainted<RangeVO>> Deserialize(const Bytes& data);
};

/// \brief A VO after its one hashing pass (NodeView::VerifiedDigest): routing
/// and replay over the checked view hash nothing of it again. Nothing routed
/// over it is believed until root() matches a trusted root (the entry points
/// below, or core::VoChain). Borrows the view, which must outlive it.
class CheckedVO {
 public:
  /// The only hashing pass over a quarantined PointVO or RangeVO: the
  /// digest, not the VO, is what becomes trusted.
  template <typename VO>
  static Result<CheckedVO> Check(const util::Tainted<VO>& vo) {
    return Check(vo.untrusted().root);
  }
  /// Same over a locally built view (tests, benches, examples).
  static Result<CheckedVO> Check(const NodeView& root);
  static Result<CheckedVO> Check(NodeView&&) = delete;

  const Digest& root() const { return root_; }

  /// Point read: the value stored under `key`, or std::nullopt when the
  /// search path provably does not contain it (non-membership).
  Result<std::optional<Bytes>> Read(const Bytes& key) const;

  /// Replays an upsert of (key, value), splits included. \return the root
  /// the honest server must now have (§4.1).
  Result<Digest> Upsert(const TreeParams& params, const Bytes& key,
                        const Bytes& value) const;

  /// Replays a delete (empty-leaf unlinking and root collapse included).
  /// \return the new root digest, or std::nullopt when `key` is provably
  /// absent and the tree is unchanged.
  Result<std::optional<Digest>> Delete(const Bytes& key) const;

  /// Range scan over [lo, hi] inclusive, checking completeness (every
  /// overlapping child expanded) and soundness (every in-range value
  /// present). \return the in-range pairs in key order.
  Result<std::vector<std::pair<Bytes, Bytes>>> Range(const Bytes& lo,
                                                     const Bytes& hi) const;

 private:
  CheckedVO(const NodeView* view, Digest root)
      : view_(view), root_(std::move(root)) {}

  const NodeView* view_;
  Digest root_;
};

// ---- Trusted-root entry points --------------------------------------------
// Each is one CheckedVO pass, a comparison of its digest with `trusted_root`
// (a mismatch emits a kVoMismatch audit event naming both roots and returns
// VerificationFailure), then the routed read or replay.

/// \brief Point read against a trusted root. \return the value if present,
/// std::nullopt if provably absent.
Result<std::optional<Bytes>> VerifyPointRead(const Digest& trusted_root,
                                             const Bytes& key,
                                             const PointVO& vo);

/// \brief Upsert replay against a trusted root. \return the new root.
Result<Digest> VerifyAndApplyUpsert(const Digest& trusted_root,
                                    const TreeParams& params, const Bytes& key,
                                    const Bytes& value, const PointVO& vo);

/// \brief Delete replay against a trusted root. \return the new root;
/// NotFound if the key is provably absent (tree unchanged).
Result<Digest> VerifyAndApplyDelete(const Digest& trusted_root,
                                    const Bytes& key, const PointVO& vo);

/// \brief Range scan over [lo, hi] inclusive against a trusted root.
Result<std::vector<std::pair<Bytes, Bytes>>> VerifyRangeRead(
    const Digest& trusted_root, const Bytes& lo, const Bytes& hi,
    const RangeVO& vo);

/// \brief Digest of an empty tree (a single empty leaf); the well-known
/// initial root digest M(D₀) of the paper.
Digest EmptyRootDigest();

}  // namespace mtree
}  // namespace tcvs
