#include "mtree/btree.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/serde.h"

namespace tcvs {
namespace mtree {

namespace {
size_t RouteChild(const std::vector<Bytes>& keys, const Bytes& key) {
  return std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
}
}  // namespace

struct MerkleBTree::Node {
  bool is_leaf = true;
  // Leaf: entry keys; internal: separator keys.
  std::vector<Bytes> keys;
  // Leaf only; parallel to keys.
  std::vector<Bytes> values;
  std::vector<Digest> value_hashes;
  // Internal only; size keys.size() + 1.
  std::vector<std::unique_ptr<Node>> children;
  Digest digest;
};

struct MerkleBTree::SplitResult {
  Bytes separator;
  std::unique_ptr<Node> right;
};

MerkleBTree::MerkleBTree(TreeParams params) : params_(params) {
  root_ = std::make_unique<Node>();
  RecomputeDigest(root_.get());
  root_digest_ = root_->digest;
}

MerkleBTree::~MerkleBTree() = default;
MerkleBTree::MerkleBTree(MerkleBTree&&) noexcept = default;
MerkleBTree& MerkleBTree::operator=(MerkleBTree&&) noexcept = default;

void MerkleBTree::RecomputeDigest(Node* node) {
  if (node->is_leaf) {
    std::vector<EntryView> entries;
    entries.reserve(node->keys.size());
    for (size_t i = 0; i < node->keys.size(); ++i) {
      entries.push_back(EntryView{node->keys[i], node->value_hashes[i], std::nullopt});
    }
    node->digest = LeafDigest(entries);
  } else {
    std::vector<Digest> child_digests;
    child_digests.reserve(node->children.size());
    for (const auto& c : node->children) child_digests.push_back(c->digest);
    node->digest = InternalDigest(node->keys, child_digests);
  }
}

size_t MerkleBTree::height() const {
  size_t h = 0;
  // Depth can vary across subtrees after delete collapses; report the max.
  struct Walker {
    static size_t Depth(const Node* n) {
      if (n->is_leaf) return 1;
      size_t best = 0;
      for (const auto& c : n->children) best = std::max(best, Depth(c.get()));
      return best + 1;
    }
  };
  h = Walker::Depth(root_.get());
  return h;
}

std::optional<Bytes> MerkleBTree::Get(const Bytes& key) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[RouteChild(node->keys, key)].get();
  }
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it != node->keys.end() && *it == key) {
    return node->values[it - node->keys.begin()];
  }
  return std::nullopt;
}

std::vector<std::pair<Bytes, Bytes>> MerkleBTree::Range(const Bytes& lo,
                                                        const Bytes& hi) const {
  std::vector<std::pair<Bytes, Bytes>> out;
  struct Walker {
    const Bytes& lo;
    const Bytes& hi;
    std::vector<std::pair<Bytes, Bytes>>* out;
    void Walk(const Node* n) {
      if (n->is_leaf) {
        for (size_t i = 0; i < n->keys.size(); ++i) {
          if (lo <= n->keys[i] && n->keys[i] <= hi) {
            out->emplace_back(n->keys[i], n->values[i]);
          }
        }
        return;
      }
      const size_t nkeys = n->keys.size();
      for (size_t i = 0; i <= nkeys; ++i) {
        bool intersects =
            (i == 0 || n->keys[i - 1] <= hi) && (i == nkeys || lo < n->keys[i]);
        if (intersects) Walk(n->children[i].get());
      }
    }
  };
  if (hi < lo) return out;
  Walker{lo, hi, &out}.Walk(root_.get());
  return out;
}

std::vector<std::pair<Bytes, Bytes>> MerkleBTree::Items() const {
  std::vector<std::pair<Bytes, Bytes>> out;
  struct Walker {
    std::vector<std::pair<Bytes, Bytes>>* out;
    void Walk(const Node* n) {
      if (n->is_leaf) {
        for (size_t i = 0; i < n->keys.size(); ++i) {
          out->emplace_back(n->keys[i], n->values[i]);
        }
        return;
      }
      for (const auto& c : n->children) Walk(c.get());
    }
  };
  Walker{&out}.Walk(root_.get());
  return out;
}

NodeView MerkleBTree::BuildPointView(const Node* node, const Bytes& key) const {
  NodeView view;
  view.is_leaf = node->is_leaf;
  if (node->is_leaf) {
    view.entries.reserve(node->keys.size());
    for (size_t i = 0; i < node->keys.size(); ++i) {
      EntryView e{node->keys[i], node->value_hashes[i], std::nullopt};
      if (node->keys[i] == key) e.value = node->values[i];
      view.entries.push_back(std::move(e));
    }
    return view;
  }
  view.keys = node->keys;
  view.child_digests.reserve(node->children.size());
  for (const auto& c : node->children) view.child_digests.push_back(c->digest);
  size_t ci = RouteChild(node->keys, key);
  view.expanded.emplace(static_cast<uint32_t>(ci),
                        BuildPointView(node->children[ci].get(), key));
  return view;
}

PointVO MerkleBTree::ProvePoint(const Bytes& key) const {
  TCVS_SPAN("mtree.tree.prove_point");
  return PointVO{BuildPointView(root_.get(), key)};
}

NodeView MerkleBTree::BuildRangeView(const Node* node, const Bytes& lo,
                                     const Bytes& hi) const {
  NodeView view;
  view.is_leaf = node->is_leaf;
  if (node->is_leaf) {
    view.entries.reserve(node->keys.size());
    for (size_t i = 0; i < node->keys.size(); ++i) {
      EntryView e{node->keys[i], node->value_hashes[i], std::nullopt};
      if (lo <= node->keys[i] && node->keys[i] <= hi) e.value = node->values[i];
      view.entries.push_back(std::move(e));
    }
    return view;
  }
  view.keys = node->keys;
  view.child_digests.reserve(node->children.size());
  for (const auto& c : node->children) view.child_digests.push_back(c->digest);
  const size_t nkeys = node->keys.size();
  for (size_t i = 0; i <= nkeys; ++i) {
    bool intersects =
        (i == 0 || node->keys[i - 1] <= hi) && (i == nkeys || lo < node->keys[i]);
    if (intersects) {
      view.expanded.emplace(static_cast<uint32_t>(i),
                            BuildRangeView(node->children[i].get(), lo, hi));
    }
  }
  return view;
}

RangeVO MerkleBTree::ProveRange(const Bytes& lo, const Bytes& hi) const {
  TCVS_SPAN("mtree.tree.prove_range");
  return RangeVO{BuildRangeView(root_.get(), lo, hi)};
}

std::optional<MerkleBTree::SplitResult> MerkleBTree::UpsertRec(Node* node,
                                                               const Bytes& key,
                                                               const Bytes& value) {
  if (node->is_leaf) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    size_t idx = it - node->keys.begin();
    Digest vh = crypto::Sha256::Hash(value);
    if (it != node->keys.end() && *it == key) {
      node->values[idx] = value;
      node->value_hashes[idx] = vh;
    } else {
      node->keys.insert(it, key);
      node->values.insert(node->values.begin() + idx, value);
      node->value_hashes.insert(node->value_hashes.begin() + idx, vh);
      ++size_;
    }
    if (node->keys.size() <= params_.max_leaf_entries) {
      RecomputeDigest(node);
      return std::nullopt;
    }
    // Split: left keeps [0, mid), right takes [mid, end); separator is the
    // first right key. Must match vo.cc's ReplayUpsert exactly.
    size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>();
    right->is_leaf = true;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->values.assign(node->values.begin() + mid, node->values.end());
    right->value_hashes.assign(node->value_hashes.begin() + mid,
                               node->value_hashes.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    node->value_hashes.resize(mid);
    RecomputeDigest(node);
    RecomputeDigest(right.get());
    Bytes sep = right->keys.front();
    return SplitResult{std::move(sep), std::move(right)};
  }

  size_t ci = RouteChild(node->keys, key);
  auto split = UpsertRec(node->children[ci].get(), key, value);
  if (split.has_value()) {
    node->keys.insert(node->keys.begin() + ci, split->separator);
    node->children.insert(node->children.begin() + ci + 1, std::move(split->right));
  }
  if (node->keys.size() <= params_.max_internal_keys) {
    RecomputeDigest(node);
    return std::nullopt;
  }
  // Internal split: middle key moves up. Must match vo.cc.
  size_t mid = node->keys.size() / 2;
  Bytes up_key = node->keys[mid];
  auto right = std::make_unique<Node>();
  right->is_leaf = false;
  right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
  for (size_t i = mid + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  RecomputeDigest(node);
  RecomputeDigest(right.get());
  return SplitResult{std::move(up_key), std::move(right)};
}

PointVO MerkleBTree::Upsert(const Bytes& key, const Bytes& value) {
  TCVS_SPAN("mtree.tree.upsert");
  PointVO vo = ProvePoint(key);
  auto split = UpsertRec(root_.get(), key, value);
  if (split.has_value()) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->keys.push_back(split->separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
    RecomputeDigest(root_.get());
  }
  root_digest_ = root_->digest;
  return vo;
}

bool MerkleBTree::DeleteRec(Node* node, const Bytes& key, bool* found) {
  if (node->is_leaf) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key) {
      *found = false;
      return false;
    }
    size_t idx = it - node->keys.begin();
    node->keys.erase(it);
    node->values.erase(node->values.begin() + idx);
    node->value_hashes.erase(node->value_hashes.begin() + idx);
    --size_;
    *found = true;
    RecomputeDigest(node);
    return node->keys.empty();
  }

  size_t ci = RouteChild(node->keys, key);
  bool child_empty = DeleteRec(node->children[ci].get(), key, found);
  if (child_empty) {
    // Unlink empty leaf + one adjacent separator; must match vo.cc.
    node->children.erase(node->children.begin() + ci);
    node->keys.erase(node->keys.begin() + (ci > 0 ? ci - 1 : 0));
    if (node->keys.empty()) {
      // Collapse this node into its single remaining child.
      std::unique_ptr<Node> only = std::move(node->children[0]);
      *node = std::move(*only);
      // Digest already correct for the moved-in child.
      return false;
    }
  }
  RecomputeDigest(node);
  return false;
}

PointVO MerkleBTree::Delete(const Bytes& key, bool* found) {
  TCVS_SPAN("mtree.tree.delete");
  PointVO vo = ProvePoint(key);
  *found = false;
  DeleteRec(root_.get(), key, found);
  root_digest_ = root_->digest;
  return vo;
}

MerkleBTree MerkleBTree::Clone() const {
  // Structural deep copy: node shape (not just contents) determines internal
  // digests, so a rebuild-by-reinsertion would not preserve the root digest.
  struct Copier {
    static std::unique_ptr<Node> Copy(const Node* n) {
      auto out = std::make_unique<Node>();
      out->is_leaf = n->is_leaf;
      out->keys = n->keys;
      out->values = n->values;
      out->value_hashes = n->value_hashes;
      out->digest = n->digest;
      out->children.reserve(n->children.size());
      for (const auto& c : n->children) out->children.push_back(Copy(c.get()));
      return out;
    }
  };
  MerkleBTree copy(params_);
  copy.root_ = Copier::Copy(root_.get());
  copy.root_digest_ = root_digest_;
  copy.size_ = size_;
  return copy;
}

namespace {
constexpr uint32_t kMaxSerializedFanout = 1u << 20;
}  // namespace

Bytes MerkleBTree::Serialize() const {
  Bytes out;
  (void)SerializeTo([&](const Bytes& chunk) {
    out.insert(out.end(), chunk.begin(), chunk.end());
    return Status::OK();
  });
  return out;
}

Status MerkleBTree::SerializeTo(
    const std::function<Status(const Bytes&)>& sink) const {
  struct Walker {
    const std::function<Status(const Bytes&)>& sink;
    util::Writer w;

    // Hands the chunk buffer to the sink once it is full.
    Status MaybeEmit() {
      if (w.buffer().size() < kSerializeChunkBytes) return Status::OK();
      TCVS_RETURN_NOT_OK(sink(w.buffer()));
      w.Clear();
      return Status::OK();
    }
    Status Write(const Node* n) {
      w.PutU8(n->is_leaf ? 1 : 0);
      w.PutU32(static_cast<uint32_t>(n->keys.size()));
      if (n->is_leaf) {
        for (size_t i = 0; i < n->keys.size(); ++i) {
          w.PutBytes(n->keys[i]);
          w.PutBytes(n->values[i]);
          TCVS_RETURN_NOT_OK(MaybeEmit());
        }
        return Status::OK();
      }
      for (const auto& k : n->keys) w.PutBytes(k);
      TCVS_RETURN_NOT_OK(MaybeEmit());
      for (const auto& c : n->children) TCVS_RETURN_NOT_OK(Write(c.get()));
      return Status::OK();
    }
  };
  Walker walker{sink, {}};
  walker.w.PutString("tcvs-mtree-v1");
  walker.w.PutU64(params_.max_leaf_entries);
  walker.w.PutU64(params_.max_internal_keys);
  walker.w.PutU64(size_);
  TCVS_RETURN_NOT_OK(walker.Write(root_.get()));
  return walker.w.buffer().empty() ? Status::OK() : sink(walker.w.buffer());
}

Result<MerkleBTree> MerkleBTree::Deserialize(const Bytes& data,
                                             TreeParams params) {
  struct Loader {
    MerkleBTree* tree;
    size_t* entries;
    Result<std::unique_ptr<Node>> Read(util::Reader* r, int depth) {
      if (depth > 64) return Status::InvalidArgument("tree nesting too deep");
      auto node = std::make_unique<Node>();
      TCVS_ASSIGN_OR_RETURN(uint8_t is_leaf, r->GetU8());
      node->is_leaf = (is_leaf == 1);
      TCVS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      if (n > kMaxSerializedFanout) {
        return Status::InvalidArgument("node too wide");
      }
      if (node->is_leaf) {
        for (uint32_t i = 0; i < n; ++i) {
          TCVS_ASSIGN_OR_RETURN(Bytes key, r->GetBytes());
          TCVS_ASSIGN_OR_RETURN(Bytes value, r->GetBytes());
          node->value_hashes.push_back(crypto::Sha256::Hash(value));
          node->keys.push_back(std::move(key));
          node->values.push_back(std::move(value));
        }
        *entries += node->keys.size();
      } else {
        for (uint32_t i = 0; i < n; ++i) {
          TCVS_ASSIGN_OR_RETURN(Bytes key, r->GetBytes());
          node->keys.push_back(std::move(key));
        }
        for (uint32_t i = 0; i < n + 1; ++i) {
          TCVS_ASSIGN_OR_RETURN(std::unique_ptr<Node> child, Read(r, depth + 1));
          node->children.push_back(std::move(child));
        }
      }
      tree->RecomputeDigest(node.get());
      return node;
    }
  };

  util::Reader r(data);
  TCVS_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != "tcvs-mtree-v1") {
    return Status::InvalidArgument("bad tree snapshot magic");
  }
  TCVS_ASSIGN_OR_RETURN(uint64_t max_leaf, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(uint64_t max_internal, r.GetU64());
  params.max_leaf_entries = max_leaf;
  params.max_internal_keys = max_internal;
  TCVS_RETURN_NOT_OK(ValidateTreeParams(params));
  TCVS_ASSIGN_OR_RETURN(uint64_t size, r.GetU64());

  MerkleBTree tree(params);
  size_t entries = 0;
  Loader loader{&tree, &entries};
  TCVS_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, loader.Read(&r, 0));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after snapshot");
  if (entries != size) {
    return Status::Corruption("snapshot entry count does not match header");
  }
  tree.root_ = std::move(root);
  tree.size_ = entries;
  tree.root_digest_ = tree.root_->digest;
  TCVS_RETURN_NOT_OK(tree.CheckInvariants());
  return tree;
}

MerkleBTree::Cursor MerkleBTree::NewCursor() const {
  return Cursor(root_.get());
}

void MerkleBTree::Cursor::DescendToLeftmost(const Node* node) {
  while (!node->is_leaf) {
    stack_.emplace_back(node, 0);
    node = node->children[0].get();
  }
  if (node->keys.empty()) {
    // Empty leaf (only possible at the root of an empty tree).
    stack_.clear();
    return;
  }
  stack_.emplace_back(node, 0);
}

void MerkleBTree::Cursor::SeekToFirst() {
  stack_.clear();
  DescendToLeftmost(root_);
}

void MerkleBTree::Cursor::Seek(const Bytes& key) {
  stack_.clear();
  const Node* node = root_;
  while (!node->is_leaf) {
    size_t ci = RouteChild(node->keys, key);
    stack_.emplace_back(node, ci);
    node = node->children[ci].get();
  }
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it != node->keys.end()) {
    stack_.emplace_back(node, size_t(it - node->keys.begin()));
    return;
  }
  // The leaf has no entry ≥ key: advance to the next leaf via the stack.
  while (!stack_.empty()) {
    auto& [parent, ci] = stack_.back();
    if (ci + 1 < parent->children.size()) {
      ci += 1;
      DescendToLeftmost(parent->children[ci].get());
      return;
    }
    stack_.pop_back();
  }
}

const Bytes& MerkleBTree::Cursor::key() const {
  return stack_.back().first->keys[stack_.back().second];
}

const Bytes& MerkleBTree::Cursor::value() const {
  return stack_.back().first->values[stack_.back().second];
}

void MerkleBTree::Cursor::Next() {
  auto& [leaf, idx] = stack_.back();
  if (idx + 1 < leaf->keys.size()) {
    idx += 1;
    return;
  }
  stack_.pop_back();
  while (!stack_.empty()) {
    auto& [parent, ci] = stack_.back();
    if (ci + 1 < parent->children.size()) {
      ci += 1;
      DescendToLeftmost(parent->children[ci].get());
      return;
    }
    stack_.pop_back();
  }
}

Result<MerkleBTree> MerkleBTree::BulkLoad(
    const std::vector<std::pair<Bytes, Bytes>>& items, TreeParams params) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (!(items[i - 1].first < items[i].first)) {
      return Status::InvalidArgument(
          "bulk-load input must be strictly sorted and unique");
    }
  }
  MerkleBTree tree(params);
  if (items.empty()) return tree;

  // Level 0: fully packed leaves, each remembering its first key.
  struct Built {
    std::unique_ptr<Node> node;
    Bytes min_key;
  };
  std::vector<Built> level;
  for (size_t start = 0; start < items.size();
       start += params.max_leaf_entries) {
    size_t end = std::min(items.size(), start + params.max_leaf_entries);
    auto leaf = std::make_unique<Node>();
    leaf->is_leaf = true;
    for (size_t i = start; i < end; ++i) {
      leaf->keys.push_back(items[i].first);
      leaf->values.push_back(items[i].second);
      leaf->value_hashes.push_back(crypto::Sha256::Hash(items[i].second));
    }
    tree.RecomputeDigest(leaf.get());
    Bytes min_key = leaf->keys.front();
    level.push_back(Built{std::move(leaf), std::move(min_key)});
  }

  // Upper levels: group up to max_internal_keys+1 children per node; if the
  // tail group would hold a single child, steal one from its neighbour so
  // every internal node has ≥ 2 children.
  while (level.size() > 1) {
    const size_t group = params.max_internal_keys + 1;
    std::vector<size_t> sizes;
    size_t remaining = level.size();
    while (remaining > 0) {
      size_t take = std::min(group, remaining);
      if (remaining - take == 1 && take == group) take -= 1;
      sizes.push_back(take);
      remaining -= take;
    }
    std::vector<Built> next;
    size_t pos = 0;
    for (size_t take : sizes) {
      auto node = std::make_unique<Node>();
      node->is_leaf = false;
      Bytes min_key = level[pos].min_key;
      for (size_t i = 0; i < take; ++i) {
        if (i > 0) node->keys.push_back(level[pos + i].min_key);
        node->children.push_back(std::move(level[pos + i].node));
      }
      tree.RecomputeDigest(node.get());
      next.push_back(Built{std::move(node), std::move(min_key)});
      pos += take;
    }
    level = std::move(next);
  }

  tree.root_ = std::move(level[0].node);
  tree.root_digest_ = tree.root_->digest;
  tree.size_ = items.size();
  return tree;
}

Status MerkleBTree::CheckInvariants() const {
  struct Checker {
    const TreeParams& params;
    Status Check(const Node* n, const Bytes* lo, const Bytes* hi) const {
      for (size_t i = 1; i < n->keys.size(); ++i) {
        if (!(n->keys[i - 1] < n->keys[i])) {
          return Status::Corruption("node keys not strictly sorted");
        }
      }
      for (const auto& k : n->keys) {
        if (lo && k < *lo) return Status::Corruption("key below subtree bound");
        if (hi && !(k < *hi)) return Status::Corruption("key above subtree bound");
      }
      if (n->is_leaf) {
        if (n->keys.size() > params.max_leaf_entries) {
          return Status::Corruption("leaf overflow");
        }
        if (n->values.size() != n->keys.size() ||
            n->value_hashes.size() != n->keys.size()) {
          return Status::Corruption("leaf arrays out of sync");
        }
        for (size_t i = 0; i < n->keys.size(); ++i) {
          if (crypto::Sha256::Hash(n->values[i]) != n->value_hashes[i]) {
            return Status::Corruption("stale value hash");
          }
        }
        std::vector<EntryView> entries;
        for (size_t i = 0; i < n->keys.size(); ++i) {
          entries.push_back(EntryView{n->keys[i], n->value_hashes[i], std::nullopt});
        }
        if (LeafDigest(entries) != n->digest) {
          return Status::Corruption("stale leaf digest");
        }
        return Status::OK();
      }
      if (n->keys.empty()) return Status::Corruption("internal node without keys");
      if (n->keys.size() > params.max_internal_keys) {
        return Status::Corruption("internal overflow");
      }
      if (n->children.size() != n->keys.size() + 1) {
        return Status::Corruption("internal child count mismatch");
      }
      std::vector<Digest> child_digests;
      for (size_t i = 0; i < n->children.size(); ++i) {
        const Bytes* clo = (i == 0) ? lo : &n->keys[i - 1];
        const Bytes* chi = (i == n->keys.size()) ? hi : &n->keys[i];
        TCVS_RETURN_NOT_OK(Check(n->children[i].get(), clo, chi));
        child_digests.push_back(n->children[i]->digest);
      }
      if (InternalDigest(n->keys, child_digests) != n->digest) {
        return Status::Corruption("stale internal digest");
      }
      return Status::OK();
    }
  };
  TCVS_RETURN_NOT_OK(Checker{params_}.Check(root_.get(), nullptr, nullptr));
  if (root_->digest != root_digest_) {
    return Status::Corruption("cached root digest stale");
  }
  return Status::OK();
}

}  // namespace mtree
}  // namespace tcvs
