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
/// checking — VerifiedDigest / VerifyPointRead / VerifyAndApply* /
/// VerifyRangeRead succeeded against a trusted root (see util/untrusted.h).
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

  /// Digest recomputation without consistency checks (used by the trusted
  /// server side where the structure is known-good).
  Digest UncheckedDigest() const;
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
  /// call endorses it (hand the Tainted VO straight to VerifyPointRead /
  /// VerifyAndApply*).
  TCVS_UNTRUSTED_SOURCE static Result<util::Tainted<PointVO>> Deserialize(
      const Bytes& data);
};

/// \brief Verification object for a range scan: the minimal subtree covering
/// [lo, hi], with values attached to in-range entries.
struct RangeVO {
  NodeView root;

  Bytes Serialize() const;
  /// Parses server-supplied bytes; quarantined until VerifyRangeRead
  /// endorses it.
  TCVS_UNTRUSTED_SOURCE static Result<util::Tainted<RangeVO>> Deserialize(
      const Bytes& data);
};

/// \brief Client-side verification of a point read.
///
/// Checks that `vo` is rooted at `trusted_root`, that the search path for
/// `key` is correctly routed, and that the leaf either contains `key` with a
/// value matching its hash (membership) or provably does not contain it
/// (non-membership).
///
/// \return the value if present, std::nullopt if provably absent.
///
/// Every verify entry point recomputes the root digest from the whole VO;
/// there is no proof cache, so a stale or forged proof always reaches the
/// trusted-root comparison and its kVoMismatch audit event.
TCVS_ENDORSER Result<std::optional<Bytes>> VerifyPointRead(
    const Digest& trusted_root, const TreeParams& params, const Bytes& key,
    const PointVO& vo);

/// \brief Client-side verification + replay of an update (upsert).
///
/// Verifies the pre-state path against `trusted_root`, then locally replays
/// the upsert of (key,value) — including leaf/internal splits — and returns
/// the new root digest the honest server must now have (paper §4.1: "the
/// user ... computes the new root digest of the tree").
TCVS_ENDORSER Result<Digest> VerifyAndApplyUpsert(const Digest& trusted_root,
                                                  const TreeParams& params,
                                                  const Bytes& key,
                                                  const Bytes& value,
                                                  const PointVO& vo);

/// \brief Client-side verification + replay of a delete.
///
/// Verifies the pre-state path, replays the removal (including empty-leaf
/// unlinking and root collapse), and returns the new root digest.
/// \return NotFound if the key is provably absent (tree unchanged).
TCVS_ENDORSER Result<Digest> VerifyAndApplyDelete(const Digest& trusted_root,
                                                  const TreeParams& params,
                                                  const Bytes& key,
                                                  const PointVO& vo);

/// \brief Client-side verification of a range scan over [lo, hi] inclusive.
///
/// Checks the subtree against `trusted_root`, that every child overlapping
/// the range is expanded (completeness), and that every in-range entry
/// carries a value matching its hash (soundness).
///
/// \return the in-range (key,value) pairs in key order.
TCVS_ENDORSER Result<std::vector<std::pair<Bytes, Bytes>>> VerifyRangeRead(
    const Digest& trusted_root, const TreeParams& params, const Bytes& lo,
    const Bytes& hi, const RangeVO& vo);

// ---- Tainted-VO entry points ----------------------------------------------
// The verify functions ARE the endorsers for wire VOs: a Tainted VO from
// PointVO/RangeVO::Deserialize goes straight in, and a successful result is
// the endorsed product (a value / a new trusted root digest). The plain
// overloads above remain for the server side and for locally built VOs.

/// Recomputes and consistency-checks the root digest of a quarantined VO —
/// the first endorsement step of every client chain walk (the digest, not
/// the VO, is what becomes trusted).
TCVS_ENDORSER inline Result<Digest> VerifiedRootDigest(
    const util::Tainted<PointVO>& vo) {
  return vo.untrusted().root.VerifiedDigest();
}
TCVS_ENDORSER inline Result<Digest> VerifiedRootDigest(
    const util::Tainted<RangeVO>& vo) {
  return vo.untrusted().root.VerifiedDigest();
}

TCVS_ENDORSER inline Result<std::optional<Bytes>> VerifyPointRead(
    const Digest& trusted_root, const TreeParams& params, const Bytes& key,
    const util::Tainted<PointVO>& vo) {
  return VerifyPointRead(trusted_root, params, key, vo.untrusted());
}

TCVS_ENDORSER inline Result<Digest> VerifyAndApplyUpsert(
    const Digest& trusted_root, const TreeParams& params, const Bytes& key,
    const Bytes& value, const util::Tainted<PointVO>& vo) {
  return VerifyAndApplyUpsert(trusted_root, params, key, value, vo.untrusted());
}

TCVS_ENDORSER inline Result<Digest> VerifyAndApplyDelete(
    const Digest& trusted_root, const TreeParams& params, const Bytes& key,
    const util::Tainted<PointVO>& vo) {
  return VerifyAndApplyDelete(trusted_root, params, key, vo.untrusted());
}

TCVS_ENDORSER inline Result<std::vector<std::pair<Bytes, Bytes>>>
VerifyRangeRead(const Digest& trusted_root, const TreeParams& params,
                const Bytes& lo, const Bytes& hi,
                const util::Tainted<RangeVO>& vo) {
  return VerifyRangeRead(trusted_root, params, lo, hi, vo.untrusted());
}

/// \brief Digest of an empty tree (a single empty leaf); the well-known
/// initial root digest M(D₀) of the paper.
Digest EmptyRootDigest();

}  // namespace mtree
}  // namespace tcvs
