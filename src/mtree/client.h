#pragma once

#include "mtree/vo.h"

namespace tcvs {
namespace mtree {

/// \brief Client-side mirror of the database state: just the trusted root
/// digest M plus the tree parameters (paper §4.1: "We assume that the
/// current root digest M is known to the user").
///
/// Every operation verifies the server-supplied VO against the current M;
/// mutating operations then advance M to the locally recomputed post-state
/// root. The client state is a constant number of bytes regardless of
/// database size — the bounded-local-state desideratum (§2.2.5).
class TreeClient {
 public:
  TreeClient(Digest initial_root, TreeParams params)
      : root_(std::move(initial_root)), params_(params) {}

  /// Constructs a client for an empty database.
  static TreeClient ForEmptyDatabase(TreeParams params = TreeParams{}) {
    return TreeClient(EmptyRootDigest(), params);
  }

  /// Trusted root digest of the last verified state.
  const Digest& root() const { return root_; }
  const TreeParams& params() const { return params_; }

  /// Verifies an authenticated point read. Does not change M.
  /// \return the value, or nullopt for authenticated non-membership.
  Result<std::optional<Bytes>> Read(const Bytes& key, const PointVO& vo) const {
    return VerifyPointRead(root_, params_, key, vo);
  }
  /// Same, straight from a quarantined wire VO — the verify call endorses.
  TCVS_ENDORSER Result<std::optional<Bytes>> Read(
      const Bytes& key, const util::Tainted<PointVO>& vo) const {
    return VerifyPointRead(root_, params_, key, vo);
  }

  /// Verifies an authenticated range read. Does not change M.
  Result<std::vector<std::pair<Bytes, Bytes>>> ReadRange(const Bytes& lo,
                                                         const Bytes& hi,
                                                         const RangeVO& vo) const {
    return VerifyRangeRead(root_, params_, lo, hi, vo);
  }
  TCVS_ENDORSER Result<std::vector<std::pair<Bytes, Bytes>>> ReadRange(
      const Bytes& lo, const Bytes& hi,
      const util::Tainted<RangeVO>& vo) const {
    return VerifyRangeRead(root_, params_, lo, hi, vo);
  }

  /// Verifies the pre-state VO of an upsert, replays it, and advances M.
  /// \return the new root digest.
  Result<Digest> ApplyUpsert(const Bytes& key, const Bytes& value,
                             const PointVO& vo) {
    TCVS_ASSIGN_OR_RETURN(Digest next, VerifyAndApplyUpsert(root_, params_, key,
                                                            value, vo));
    root_ = next;
    return root_;
  }
  TCVS_ENDORSER Result<Digest> ApplyUpsert(const Bytes& key, const Bytes& value,
                                           const util::Tainted<PointVO>& vo) {
    TCVS_ASSIGN_OR_RETURN(Digest next, VerifyAndApplyUpsert(root_, params_, key,
                                                            value, vo));
    root_ = next;
    return root_;
  }

  /// Verifies the pre-state VO of a delete, replays it, and advances M.
  /// \return the new root digest; NotFound (M unchanged) when the VO proves
  /// the key absent.
  Result<Digest> ApplyDelete(const Bytes& key, const PointVO& vo) {
    TCVS_ASSIGN_OR_RETURN(Digest next,
                          VerifyAndApplyDelete(root_, params_, key, vo));
    root_ = next;
    return root_;
  }
  TCVS_ENDORSER Result<Digest> ApplyDelete(const Bytes& key,
                                           const util::Tainted<PointVO>& vo) {
    TCVS_ASSIGN_OR_RETURN(Digest next,
                          VerifyAndApplyDelete(root_, params_, key, vo));
    root_ = next;
    return root_;
  }

  /// Force-sets the trusted root (used when a protocol hands the client a
  /// state authenticated by other means, e.g. a verified signed root).
  void ResetRoot(Digest root) { root_ = std::move(root); }

 private:
  Digest root_;
  TreeParams params_;
};

}  // namespace mtree
}  // namespace tcvs
