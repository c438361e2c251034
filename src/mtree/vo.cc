#include "mtree/vo.h"

#include <algorithm>

#include "util/audit.h"
#include "util/cost.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace mtree {

namespace {

/// A root-digest mismatch is THE core deviation signal of the paper: the
/// server's VO describes a tree that is not the one the client trusts.
/// Record both digests so an auditor sees exactly what diverged.
Status RootMismatch(const char* op, const Digest& trusted_root,
                    const Digest& root_digest) {
  util::AuditEvent event(util::AuditEventKind::kVoMismatch);
  event.expected_digest = trusted_root;
  event.actual_digest = root_digest;
  event.detail = std::string(op) + ": VO root digest does not match trusted root";
  util::AuditLog::Instance().Emit(std::move(event));
  return Status::VerificationFailure("VO root digest does not match trusted root");
}

// One pass over `view`, then its digest against the client's trusted root:
// the body of every trusted-root entry point.
Result<CheckedVO> CheckAgainst(const char* op, const Digest& trusted_root,
                               const NodeView& view) {
  TCVS_ASSIGN_OR_RETURN(CheckedVO checked, CheckedVO::Check(view));
  if (checked.root() != trusted_root) {
    return RootMismatch(op, trusted_root, checked.root());
  }
  return checked;
}

// Routing rule shared by server and client: the child index for `key` is the
// number of separators <= key.
size_t RouteChild(const std::vector<Bytes>& keys, const Bytes& key) {
  return std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
}

bool StrictlySorted(const std::vector<Bytes>& keys) {
  for (size_t i = 1; i < keys.size(); ++i) {
    if (!(keys[i - 1] < keys[i])) return false;
  }
  return true;
}

}  // namespace

Status ValidateTreeParams(const TreeParams& params) {
  if (params.max_leaf_entries < 2 || params.max_internal_keys < 2) {
    return Status::InvalidArgument(
        "tree params must be at least 2, got leaf=" +
        std::to_string(params.max_leaf_entries) +
        " internal=" + std::to_string(params.max_internal_keys));
  }
  return Status::OK();
}

Digest LeafDigest(const std::vector<EntryView>& entries) {
  util::Writer w;
  w.PutU8(0x00);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.PutBytes(e.key);
    w.PutRaw(e.value_hash);
  }
  return crypto::Sha256::Hash(w.buffer());
}

Digest InternalDigest(const std::vector<Bytes>& keys,
                      const std::vector<Digest>& child_digests) {
  util::Writer w;
  w.PutU8(0x01);
  w.PutU32(static_cast<uint32_t>(keys.size()));
  for (const auto& k : keys) w.PutBytes(k);
  for (const auto& d : child_digests) w.PutRaw(d);
  return crypto::Sha256::Hash(w.buffer());
}

Digest EmptyRootDigest() { return LeafDigest({}); }

Result<Digest> NodeView::VerifiedDigest() const {
  if (is_leaf) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].value_hash.size() != crypto::kDigestSize) {
        return Status::InvalidArgument("leaf entry value hash has wrong size");
      }
      if (i > 0 && !(entries[i - 1].key < entries[i].key)) {
        return Status::VerificationFailure("leaf entries not strictly sorted");
      }
      if (entries[i].value.has_value() &&
          crypto::Sha256::Hash(*entries[i].value) != entries[i].value_hash) {
        return Status::VerificationFailure("leaf entry value does not match hash");
      }
    }
    return LeafDigest(entries);
  }

  if (keys.empty()) {
    return Status::VerificationFailure("internal node with no separators");
  }
  if (child_digests.size() != keys.size() + 1) {
    return Status::VerificationFailure("internal node child count mismatch");
  }
  if (!StrictlySorted(keys)) {
    return Status::VerificationFailure("internal separators not strictly sorted");
  }
  for (const auto& d : child_digests) {
    if (d.size() != crypto::kDigestSize) {
      return Status::InvalidArgument("child digest has wrong size");
    }
  }
  for (const auto& [idx, child] : expanded) {
    if (idx >= child_digests.size()) {
      return Status::VerificationFailure("expanded child index out of range");
    }
    TCVS_ASSIGN_OR_RETURN(Digest child_digest, child.VerifiedDigest());
    if (child_digest != child_digests[idx]) {
      return Status::VerificationFailure(
          "expanded child digest does not match parent's record");
    }
  }
  return InternalDigest(keys, child_digests);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kMaxViewFanout = 1u << 20;

void SerializeView(const NodeView& view, util::Writer* w) {
  w->PutU8(view.is_leaf ? 1 : 0);
  if (view.is_leaf) {
    w->PutU32(static_cast<uint32_t>(view.entries.size()));
    for (const auto& e : view.entries) {
      w->PutBytes(e.key);
      w->PutRaw(e.value_hash);
      w->PutU8(e.value.has_value() ? 1 : 0);
      if (e.value.has_value()) w->PutBytes(*e.value);
    }
  } else {
    w->PutU32(static_cast<uint32_t>(view.keys.size()));
    for (const auto& k : view.keys) w->PutBytes(k);
    for (const auto& d : view.child_digests) w->PutRaw(d);
    w->PutU32(static_cast<uint32_t>(view.expanded.size()));
    for (const auto& [idx, child] : view.expanded) {
      w->PutU32(idx);
      SerializeView(child, w);
    }
  }
}

Result<NodeView> DeserializeView(util::Reader* r, int depth) {
  if (depth > 64) return Status::InvalidArgument("view nesting too deep");
  NodeView view;
  TCVS_ASSIGN_OR_RETURN(uint8_t is_leaf, r->GetU8());
  view.is_leaf = (is_leaf == 1);
  if (view.is_leaf) {
    TCVS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
    if (n > kMaxViewFanout) return Status::InvalidArgument("leaf too large");
    view.entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      EntryView e;
      TCVS_ASSIGN_OR_RETURN(e.key, r->GetBytes());
      TCVS_ASSIGN_OR_RETURN(e.value_hash, r->GetRaw(crypto::kDigestSize));
      TCVS_ASSIGN_OR_RETURN(uint8_t has_value, r->GetU8());
      if (has_value) {
        TCVS_ASSIGN_OR_RETURN(Bytes v, r->GetBytes());
        e.value = std::move(v);
      }
      view.entries.push_back(std::move(e));
    }
  } else {
    TCVS_ASSIGN_OR_RETURN(uint32_t nkeys, r->GetU32());
    if (nkeys > kMaxViewFanout) return Status::InvalidArgument("node too large");
    view.keys.reserve(nkeys);
    for (uint32_t i = 0; i < nkeys; ++i) {
      TCVS_ASSIGN_OR_RETURN(Bytes k, r->GetBytes());
      view.keys.push_back(std::move(k));
    }
    view.child_digests.reserve(nkeys + 1);
    for (uint32_t i = 0; i < nkeys + 1; ++i) {
      TCVS_ASSIGN_OR_RETURN(Digest d, r->GetRaw(crypto::kDigestSize));
      view.child_digests.push_back(std::move(d));
    }
    TCVS_ASSIGN_OR_RETURN(uint32_t nexp, r->GetU32());
    if (nexp > nkeys + 1) {
      return Status::InvalidArgument("more expansions than children");
    }
    for (uint32_t i = 0; i < nexp; ++i) {
      TCVS_ASSIGN_OR_RETURN(uint32_t idx, r->GetU32());
      TCVS_ASSIGN_OR_RETURN(NodeView child, DeserializeView(r, depth + 1));
      view.expanded.emplace(idx, std::move(child));
    }
  }
  return view;
}

}  // namespace

Bytes PointVO::Serialize() const {
  util::Writer w;
  SerializeView(root, &w);
  Bytes out = w.Take();
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->vo_bytes_built += out.size();
  }
  return out;
}

Result<util::Tainted<PointVO>> PointVO::Deserialize(const Bytes& data) {
  util::Reader r(data);
  TCVS_ASSIGN_OR_RETURN(NodeView root, DeserializeView(&r, 0));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after VO");
  return util::Tainted<PointVO>(PointVO{std::move(root)});
}

Bytes RangeVO::Serialize() const {
  util::Writer w;
  SerializeView(root, &w);
  Bytes out = w.Take();
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->vo_bytes_built += out.size();
  }
  return out;
}

Result<util::Tainted<RangeVO>> RangeVO::Deserialize(const Bytes& data) {
  util::Reader r(data);
  TCVS_ASSIGN_OR_RETURN(NodeView root, DeserializeView(&r, 0));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after VO");
  return util::Tainted<RangeVO>(RangeVO{std::move(root)});
}

// ---------------------------------------------------------------------------
// The one hashing pass, and point reads over it
// ---------------------------------------------------------------------------

Result<CheckedVO> CheckedVO::Check(const NodeView& root) {
  TCVS_ASSIGN_OR_RETURN(Digest digest, root.VerifiedDigest());
  return CheckedVO(&root, std::move(digest));
}

Result<std::optional<Bytes>> CheckedVO::Read(const Bytes& key) const {
  const NodeView* node = view_;
  int depth = 0;
  while (!node->is_leaf) {
    if (++depth > 64) return Status::VerificationFailure("VO path too deep");
    size_t ci = RouteChild(node->keys, key);
    auto it = node->expanded.find(static_cast<uint32_t>(ci));
    if (it == node->expanded.end()) {
      return Status::VerificationFailure("search path child not expanded in VO");
    }
    node = &it->second;
  }
  for (const auto& e : node->entries) {
    if (e.key == key) {
      if (!e.value.has_value()) {
        return Status::VerificationFailure("VO omits value for present key");
      }
      return std::optional<Bytes>(*e.value);
    }
  }
  return std::optional<Bytes>(std::nullopt);
}

Result<std::optional<Bytes>> VerifyPointRead(const Digest& trusted_root,
                                             const Bytes& key,
                                             const PointVO& vo) {
  TCVS_SPAN("mtree.vo.verify_point");
  TCVS_ASSIGN_OR_RETURN(CheckedVO checked,
                        CheckAgainst("verify_point", trusted_root, vo.root));
  return checked.Read(key);
}

// ---------------------------------------------------------------------------
// Update replay (upsert)
// ---------------------------------------------------------------------------

namespace {

struct UpsertResult {
  Digest digest;
  // Present when the node split: separator key + digest of the new right
  // sibling. `digest` is then the left half.
  std::optional<std::pair<Bytes, Digest>> split;
};

Result<UpsertResult> ReplayUpsert(const NodeView& node, const TreeParams& params,
                                  const Bytes& key, const Bytes& value) {
  if (node.is_leaf) {
    std::vector<EntryView> entries = node.entries;
    Digest vh = crypto::Sha256::Hash(value);
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const EntryView& e, const Bytes& k) { return e.key < k; });
    if (it != entries.end() && it->key == key) {
      it->value_hash = vh;
      it->value.reset();
    } else {
      entries.insert(it, EntryView{key, vh, std::nullopt});
    }
    if (entries.size() <= params.max_leaf_entries) {
      return UpsertResult{LeafDigest(entries), std::nullopt};
    }
    size_t mid = entries.size() / 2;
    std::vector<EntryView> left(entries.begin(), entries.begin() + mid);
    std::vector<EntryView> right(entries.begin() + mid, entries.end());
    Bytes sep = right.front().key;
    return UpsertResult{LeafDigest(left),
                        std::make_pair(std::move(sep), LeafDigest(right))};
  }

  size_t ci = RouteChild(node.keys, key);
  auto it = node.expanded.find(static_cast<uint32_t>(ci));
  if (it == node.expanded.end()) {
    return Status::VerificationFailure("update path child not expanded in VO");
  }
  TCVS_ASSIGN_OR_RETURN(UpsertResult child_result,
                        ReplayUpsert(it->second, params, key, value));

  std::vector<Bytes> keys = node.keys;
  std::vector<Digest> children = node.child_digests;
  children[ci] = child_result.digest;
  if (child_result.split.has_value()) {
    keys.insert(keys.begin() + ci, child_result.split->first);
    children.insert(children.begin() + ci + 1, child_result.split->second);
  }
  if (keys.size() <= params.max_internal_keys) {
    return UpsertResult{InternalDigest(keys, children), std::nullopt};
  }
  size_t mid = keys.size() / 2;
  Bytes up_key = keys[mid];
  std::vector<Bytes> lkeys(keys.begin(), keys.begin() + mid);
  std::vector<Bytes> rkeys(keys.begin() + mid + 1, keys.end());
  std::vector<Digest> lchildren(children.begin(), children.begin() + mid + 1);
  std::vector<Digest> rchildren(children.begin() + mid + 1, children.end());
  return UpsertResult{
      InternalDigest(lkeys, lchildren),
      std::make_pair(std::move(up_key), InternalDigest(rkeys, rchildren))};
}

}  // namespace

Result<Digest> CheckedVO::Upsert(const TreeParams& params, const Bytes& key,
                                 const Bytes& value) const {
  TCVS_ASSIGN_OR_RETURN(UpsertResult r,
                        ReplayUpsert(*view_, params, key, value));
  if (!r.split.has_value()) return r.digest;
  // Root split: a new root with one separator and two children.
  return InternalDigest({r.split->first}, {r.digest, r.split->second});
}

Result<Digest> VerifyAndApplyUpsert(const Digest& trusted_root,
                                    const TreeParams& params, const Bytes& key,
                                    const Bytes& value, const PointVO& vo) {
  TCVS_SPAN("mtree.vo.apply_upsert");
  TCVS_ASSIGN_OR_RETURN(CheckedVO checked,
                        CheckAgainst("apply_upsert", trusted_root, vo.root));
  return checked.Upsert(params, key, value);
}

// ---------------------------------------------------------------------------
// Delete replay
// ---------------------------------------------------------------------------

namespace {

struct DeleteResult {
  Digest digest;
  bool found = false;
  // The node became an empty leaf (must be unlinked by the parent unless it
  // is the root).
  bool now_empty = false;
};

Result<DeleteResult> ReplayDelete(const NodeView& node, const Bytes& key) {
  if (node.is_leaf) {
    std::vector<EntryView> entries = node.entries;
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const EntryView& e, const Bytes& k) { return e.key < k; });
    if (it == entries.end() || it->key != key) {
      return DeleteResult{LeafDigest(entries), /*found=*/false,
                          /*now_empty=*/false};
    }
    entries.erase(it);
    return DeleteResult{LeafDigest(entries), /*found=*/true, entries.empty()};
  }

  size_t ci = RouteChild(node.keys, key);
  auto it = node.expanded.find(static_cast<uint32_t>(ci));
  if (it == node.expanded.end()) {
    return Status::VerificationFailure("delete path child not expanded in VO");
  }
  TCVS_ASSIGN_OR_RETURN(DeleteResult child_result,
                        ReplayDelete(it->second, key));
  std::vector<Bytes> keys = node.keys;
  std::vector<Digest> children = node.child_digests;
  if (child_result.now_empty) {
    // Unlink the empty leaf together with one adjacent separator.
    children.erase(children.begin() + ci);
    keys.erase(keys.begin() + (ci > 0 ? ci - 1 : 0));
    if (keys.empty()) {
      // Single child left: this node collapses into it.
      return DeleteResult{children[0], child_result.found, /*now_empty=*/false};
    }
  } else {
    children[ci] = child_result.digest;
  }
  return DeleteResult{InternalDigest(keys, children), child_result.found,
                      /*now_empty=*/false};
}

}  // namespace

Result<std::optional<Digest>> CheckedVO::Delete(const Bytes& key) const {
  TCVS_ASSIGN_OR_RETURN(DeleteResult r, ReplayDelete(*view_, key));
  if (!r.found) return std::optional<Digest>(std::nullopt);
  if (r.now_empty) {
    return std::optional<Digest>(EmptyRootDigest());  // Root leaf emptied.
  }
  return std::optional<Digest>(std::move(r.digest));
}

Result<Digest> VerifyAndApplyDelete(const Digest& trusted_root,
                                    const Bytes& key, const PointVO& vo) {
  TCVS_SPAN("mtree.vo.apply_delete");
  TCVS_ASSIGN_OR_RETURN(CheckedVO checked,
                        CheckAgainst("apply_delete", trusted_root, vo.root));
  TCVS_ASSIGN_OR_RETURN(std::optional<Digest> post, checked.Delete(key));
  if (!post.has_value()) {
    return Status::NotFound("key not present (authenticated)");
  }
  return std::move(*post);
}

// ---------------------------------------------------------------------------
// Range verification
// ---------------------------------------------------------------------------

namespace {

Status CollectRange(const NodeView& node, const Bytes& lo, const Bytes& hi,
                    std::vector<std::pair<Bytes, Bytes>>* out, int depth) {
  if (depth > 64) return Status::VerificationFailure("range VO too deep");
  if (node.is_leaf) {
    for (const auto& e : node.entries) {
      if (lo <= e.key && e.key <= hi) {
        if (!e.value.has_value()) {
          return Status::VerificationFailure("range VO omits in-range value");
        }
        out->emplace_back(e.key, *e.value);
      }
    }
    return Status::OK();
  }
  const size_t nkeys = node.keys.size();
  for (size_t i = 0; i <= nkeys; ++i) {
    // Child i covers [keys[i-1], keys[i]); it intersects [lo, hi] iff
    // (i == 0 || keys[i-1] <= hi) && (i == nkeys || lo < keys[i]).
    bool intersects =
        (i == 0 || node.keys[i - 1] <= hi) && (i == nkeys || lo < node.keys[i]);
    if (!intersects) continue;
    auto it = node.expanded.find(static_cast<uint32_t>(i));
    if (it == node.expanded.end()) {
      return Status::VerificationFailure(
          "range VO does not expand a child overlapping the range");
    }
    TCVS_RETURN_NOT_OK(CollectRange(it->second, lo, hi, out, depth + 1));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::pair<Bytes, Bytes>>> CheckedVO::Range(
    const Bytes& lo, const Bytes& hi) const {
  if (hi < lo) return Status::InvalidArgument("range bounds reversed");
  std::vector<std::pair<Bytes, Bytes>> out;
  TCVS_RETURN_NOT_OK(CollectRange(*view_, lo, hi, &out, 0));
  for (size_t i = 1; i < out.size(); ++i) {
    if (!(out[i - 1].first < out[i].first)) {
      return Status::VerificationFailure("range result keys out of order");
    }
  }
  return out;
}

Result<std::vector<std::pair<Bytes, Bytes>>> VerifyRangeRead(
    const Digest& trusted_root, const Bytes& lo, const Bytes& hi,
    const RangeVO& vo) {
  TCVS_SPAN("mtree.vo.verify_range");
  TCVS_ASSIGN_OR_RETURN(CheckedVO checked,
                        CheckAgainst("verify_range", trusted_root, vo.root));
  return checked.Range(lo, hi);
}

}  // namespace mtree
}  // namespace tcvs
