#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "crypto/sha256.h"
#include "mtree/btree.h"
#include "mtree/vo.h"
#include "util/audit.h"
#include "util/random.h"
#include "util/serde.h"

namespace tcvs {
namespace mtree {
namespace {

Bytes K(const std::string& s) { return util::ToBytes(s); }
Bytes NumKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08llu", static_cast<unsigned long long>(i));
  return util::ToBytes(buf);
}

// ---------------------------------------------------------------------------
// Basic tree behaviour
// ---------------------------------------------------------------------------

TEST(BTreeTest, EmptyTree) {
  MerkleBTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.root_digest(), EmptyRootDigest());
  EXPECT_FALSE(tree.Get(K("missing")).has_value());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, InsertAndGet) {
  MerkleBTree tree;
  tree.Upsert(K("b"), K("2"));
  tree.Upsert(K("a"), K("1"));
  tree.Upsert(K("c"), K("3"));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(*tree.Get(K("a")), K("1"));
  EXPECT_EQ(*tree.Get(K("b")), K("2"));
  EXPECT_EQ(*tree.Get(K("c")), K("3"));
  EXPECT_FALSE(tree.Get(K("d")).has_value());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, UpdateOverwrites) {
  MerkleBTree tree;
  tree.Upsert(K("k"), K("v1"));
  Digest d1 = tree.root_digest();
  tree.Upsert(K("k"), K("v2"));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Get(K("k")), K("v2"));
  EXPECT_NE(tree.root_digest(), d1);
}

TEST(BTreeTest, RootDigestDependsOnlyOnContents) {
  MerkleBTree a, b;
  // Same final contents, different insertion order (no splits at this size).
  a.Upsert(K("x"), K("1"));
  a.Upsert(K("y"), K("2"));
  b.Upsert(K("y"), K("2"));
  b.Upsert(K("x"), K("1"));
  EXPECT_EQ(a.root_digest(), b.root_digest());
}

TEST(BTreeTest, ManyInsertsSplitAndStaySorted) {
  MerkleBTree tree;
  const int kN = 500;
  for (int i = 0; i < kN; ++i) tree.Upsert(NumKey(i * 37 % kN), NumKey(i));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GT(tree.height(), 1u);
  auto items = tree.Items();
  EXPECT_EQ(items.size(), tree.size());
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].first, items[i].first);
  }
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  MerkleBTree tree(TreeParams{.max_leaf_entries = 8, .max_internal_keys = 8});
  for (int i = 0; i < 2000; ++i) tree.Upsert(NumKey(i), K("v"));
  // With fanout ~8, 2000 entries need no more than ~5 levels.
  EXPECT_LE(tree.height(), 6u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, DeleteRemoves) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  bool found = false;
  tree.Delete(NumKey(50), &found);
  EXPECT_TRUE(found);
  EXPECT_EQ(tree.size(), 99u);
  EXPECT_FALSE(tree.Get(NumKey(50)).has_value());
  EXPECT_TRUE(tree.CheckInvariants().ok());

  tree.Delete(NumKey(50), &found);
  EXPECT_FALSE(found);
  EXPECT_EQ(tree.size(), 99u);
}

TEST(BTreeTest, DeleteEverything) {
  MerkleBTree tree;
  const int kN = 300;
  for (int i = 0; i < kN; ++i) tree.Upsert(NumKey(i), NumKey(i));
  util::Rng rng(123);
  std::vector<int> order(kN);
  for (int i = 0; i < kN; ++i) order[i] = i;
  rng.Shuffle(&order);
  for (int i : order) {
    bool found = false;
    tree.Delete(NumKey(i), &found);
    EXPECT_TRUE(found) << i;
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after deleting " << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root_digest(), EmptyRootDigest());
}

TEST(BTreeTest, RangeScan) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  auto out = tree.Range(NumKey(10), NumKey(19));
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().first, NumKey(10));
  EXPECT_EQ(out.back().first, NumKey(19));
  EXPECT_TRUE(tree.Range(NumKey(98), NumKey(200)).size() == 2);
  EXPECT_TRUE(tree.Range(K("zzz"), K("zzzz")).empty());
}

TEST(BTreeTest, MatchesReferenceMapUnderRandomOps) {
  MerkleBTree tree;
  std::map<Bytes, Bytes> ref;
  util::Rng rng(777);
  for (int step = 0; step < 3000; ++step) {
    Bytes key = NumKey(rng.Uniform(200));
    int op = rng.Uniform(3);
    if (op == 0 || op == 1) {
      Bytes value = rng.RandomBytes(1 + rng.Uniform(40));
      tree.Upsert(key, value);
      ref[key] = value;
    } else {
      bool found = false;
      tree.Delete(key, &found);
      EXPECT_EQ(found, ref.erase(key) > 0);
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok());
    }
  }
  EXPECT_EQ(tree.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto got = tree.Get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
}

// ---------------------------------------------------------------------------
// Point-read verification
// ---------------------------------------------------------------------------

TEST(PointReadTest, MembershipVerifies) {
  MerkleBTree tree;
  for (int i = 0; i < 50; ++i) tree.Upsert(NumKey(i), NumKey(1000 + i));
  PointVO vo = tree.ProvePoint(NumKey(7));
  auto res = VerifyPointRead(tree.root_digest(), NumKey(7), vo);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res->has_value());
  EXPECT_EQ(**res, NumKey(1007));
}

TEST(PointReadTest, NonMembershipVerifies) {
  MerkleBTree tree;
  for (int i = 0; i < 50; i += 2) tree.Upsert(NumKey(i), NumKey(i));
  PointVO vo = tree.ProvePoint(NumKey(7));
  auto res = VerifyPointRead(tree.root_digest(), NumKey(7), vo);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->has_value());
}

TEST(PointReadTest, WrongRootRejected) {
  MerkleBTree tree;
  tree.Upsert(K("a"), K("1"));
  PointVO vo = tree.ProvePoint(K("a"));
  Digest wrong = crypto::Sha256::Hash("not the root");
  auto res = VerifyPointRead(wrong, K("a"), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(PointReadTest, TamperedValueRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 50; ++i) tree.Upsert(NumKey(i), NumKey(i));
  PointVO vo = tree.ProvePoint(NumKey(7));
  // Server lies about the value.
  NodeView* node = &vo.root;
  while (!node->is_leaf) node = &node->expanded.begin()->second;
  for (auto& e : node->entries) {
    if (e.value.has_value()) *e.value = K("tampered");
  }
  auto res = VerifyPointRead(tree.root_digest(), NumKey(7), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(PointReadTest, DroppedEntryRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 50; ++i) tree.Upsert(NumKey(i), NumKey(i));
  PointVO vo = tree.ProvePoint(NumKey(7));
  // Server hides the key to fake non-membership: leaf digest changes.
  NodeView* node = &vo.root;
  while (!node->is_leaf) node = &node->expanded.begin()->second;
  std::erase_if(node->entries,
                [](const EntryView& e) { return e.value.has_value(); });
  auto res = VerifyPointRead(tree.root_digest(), NumKey(7), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(PointReadTest, StaleVoRejectedAfterUpdate) {
  MerkleBTree tree;
  for (int i = 0; i < 20; ++i) tree.Upsert(NumKey(i), NumKey(i));
  PointVO stale = tree.ProvePoint(NumKey(3));
  tree.Upsert(NumKey(3), K("new-value"));
  // The stale VO proves the OLD state; against the new root it must fail.
  auto res = VerifyPointRead(tree.root_digest(), NumKey(3), stale);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(PointReadTest, SerializationRoundTrip) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  PointVO vo = tree.ProvePoint(NumKey(42));
  Bytes wire = vo.Serialize();
  auto back = PointVO::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  auto res =
      VerifyPointRead(tree.root_digest(), NumKey(42), back->untrusted());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(**res, NumKey(42));
}

TEST(PointReadTest, TruncatedWireRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  Bytes wire = tree.ProvePoint(NumKey(42)).Serialize();
  Bytes cut(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(PointVO::Deserialize(cut).ok());
}

// ---------------------------------------------------------------------------
// Update replay: the client's recomputed root must equal the server's —
// the central single-user verification loop of paper §4.1.
// ---------------------------------------------------------------------------

TEST(UpsertReplayTest, SimpleInsert) {
  MerkleBTree tree;
  PointVO vo = tree.Upsert(K("a"), K("1"));
  auto new_root =
      VerifyAndApplyUpsert(EmptyRootDigest(), tree.params(), K("a"), K("1"),
                           vo);
  ASSERT_TRUE(new_root.ok()) << new_root.status().ToString();
  EXPECT_EQ(*new_root, tree.root_digest());
}

TEST(UpsertReplayTest, InsertCausingLeafSplit) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  Digest trusted = EmptyRootDigest();
  for (int i = 0; i < 10; ++i) {
    PointVO vo = tree.Upsert(NumKey(i), NumKey(i));
    auto root = VerifyAndApplyUpsert(trusted, params, NumKey(i), NumKey(i), vo);
    ASSERT_TRUE(root.ok()) << "i=" << i << ": " << root.status().ToString();
    ASSERT_EQ(*root, tree.root_digest()) << "i=" << i;
    trusted = *root;
  }
}

TEST(UpsertReplayTest, DeepSplitsManyKeys) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  Digest trusted = EmptyRootDigest();
  for (int i = 0; i < 500; ++i) {
    Bytes key = NumKey((i * 131) % 500);
    PointVO vo = tree.Upsert(key, NumKey(i));
    auto root = VerifyAndApplyUpsert(trusted, params, key, NumKey(i), vo);
    ASSERT_TRUE(root.ok()) << "i=" << i;
    ASSERT_EQ(*root, tree.root_digest()) << "i=" << i;
    trusted = *root;
  }
  EXPECT_GE(tree.height(), 3u);
}

TEST(UpsertReplayTest, ForgedVoRejected) {
  MerkleBTree tree;
  PointVO vo = tree.Upsert(K("a"), K("1"));
  auto trusted =
      VerifyAndApplyUpsert(EmptyRootDigest(), tree.params(), K("a"), K("1"),
                           vo);
  ASSERT_TRUE(trusted.ok());
  // Replaying the SAME (stale) VO for the next op must fail: it describes
  // the pre-state of the previous operation.
  auto res = VerifyAndApplyUpsert(*trusted, tree.params(), K("b"), K("2"), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

// ---------------------------------------------------------------------------
// Delete replay
// ---------------------------------------------------------------------------

TEST(DeleteReplayTest, SimpleDelete) {
  MerkleBTree tree;
  Digest trusted = EmptyRootDigest();
  for (int i = 0; i < 30; ++i) {
    PointVO vo = tree.Upsert(NumKey(i), NumKey(i));
    auto root = VerifyAndApplyUpsert(trusted, tree.params(), NumKey(i),
                                     NumKey(i), vo);
    ASSERT_TRUE(root.ok());
    trusted = *root;
  }
  bool found = false;
  PointVO vo = tree.Delete(NumKey(5), &found);
  ASSERT_TRUE(found);
  auto root = VerifyAndApplyDelete(trusted, NumKey(5), vo);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(*root, tree.root_digest());
}

TEST(DeleteReplayTest, DeleteAbsentIsAuthenticatedNotFound) {
  MerkleBTree tree;
  PointVO vo0 = tree.Upsert(K("a"), K("1"));
  auto trusted =
      VerifyAndApplyUpsert(EmptyRootDigest(), tree.params(), K("a"), K("1"),
                           vo0);
  ASSERT_TRUE(trusted.ok());
  bool found = true;
  PointVO vo = tree.Delete(K("zz"), &found);
  EXPECT_FALSE(found);
  auto res = VerifyAndApplyDelete(*trusted, K("zz"), vo);
  EXPECT_TRUE(res.status().IsNotFound());
  // Root unchanged on both sides.
  EXPECT_EQ(*trusted, tree.root_digest());
}

TEST(DeleteReplayTest, RandomInterleavedOpsKeepClientInSync) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  Digest trusted = EmptyRootDigest();
  util::Rng rng(4242);
  for (int step = 0; step < 2000; ++step) {
    Bytes key = NumKey(rng.Uniform(150));
    if (rng.Uniform(3) != 0) {
      Bytes value = rng.RandomBytes(8);
      PointVO vo = tree.Upsert(key, value);
      auto root = VerifyAndApplyUpsert(trusted, params, key, value, vo);
      ASSERT_TRUE(root.ok()) << "step " << step << ": " << root.status().ToString();
      ASSERT_EQ(*root, tree.root_digest()) << "step " << step;
      trusted = *root;
    } else {
      bool found = false;
      PointVO vo = tree.Delete(key, &found);
      auto root = VerifyAndApplyDelete(trusted, key, vo);
      if (found) {
        ASSERT_TRUE(root.ok()) << "step " << step << ": " << root.status().ToString();
        ASSERT_EQ(*root, tree.root_digest()) << "step " << step;
        trusted = *root;
      } else {
        ASSERT_TRUE(root.status().IsNotFound()) << "step " << step;
        ASSERT_EQ(trusted, tree.root_digest()) << "step " << step;
      }
    }
    if (step % 200 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Range verification
// ---------------------------------------------------------------------------

TEST(RangeReadTest, FullCorrectRange) {
  MerkleBTree tree;
  for (int i = 0; i < 200; ++i) tree.Upsert(NumKey(i), NumKey(i + 5000));
  RangeVO vo = tree.ProveRange(NumKey(20), NumKey(39));
  auto res = VerifyRangeRead(tree.root_digest(), NumKey(20),
                             NumKey(39), vo);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->size(), 20u);
  EXPECT_EQ((*res)[0].first, NumKey(20));
  EXPECT_EQ((*res)[0].second, NumKey(5020));
  EXPECT_EQ(res->back().first, NumKey(39));
}

TEST(RangeReadTest, EmptyRangeVerifies) {
  MerkleBTree tree;
  for (int i = 0; i < 50; ++i) tree.Upsert(NumKey(2 * i), NumKey(i));
  RangeVO vo = tree.ProveRange(K("zzz0"), K("zzz9"));
  auto res =
      VerifyRangeRead(tree.root_digest(), K("zzz0"), K("zzz9"), vo);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
}

TEST(RangeReadTest, IncompleteProofRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 200; ++i) tree.Upsert(NumKey(i), NumKey(i));
  RangeVO vo = tree.ProveRange(NumKey(0), NumKey(199));
  // Malicious server withholds one expanded subtree to hide updates.
  ASSERT_FALSE(vo.root.is_leaf);
  ASSERT_FALSE(vo.root.expanded.empty());
  vo.root.expanded.erase(vo.root.expanded.begin());
  auto res = VerifyRangeRead(tree.root_digest(), NumKey(0),
                             NumKey(199), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(RangeReadTest, HiddenInRangeValueRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  RangeVO vo = tree.ProveRange(NumKey(10), NumKey(20));
  // Strip one in-range value (server "forgets" a row).
  struct Stripper {
    static bool Strip(NodeView* n) {
      if (n->is_leaf) {
        for (auto& e : n->entries) {
          if (e.value.has_value()) {
            e.value.reset();
            return true;
          }
        }
        return false;
      }
      for (auto& [idx, child] : n->expanded) {
        if (Strip(&child)) return true;
      }
      return false;
    }
  };
  ASSERT_TRUE(Stripper::Strip(&vo.root));
  auto res = VerifyRangeRead(tree.root_digest(), NumKey(10),
                             NumKey(20), vo);
  EXPECT_TRUE(res.status().IsVerificationFailure());
}

TEST(RangeReadTest, ReversedBoundsRejected) {
  MerkleBTree tree;
  tree.Upsert(K("a"), K("1"));
  RangeVO vo = tree.ProveRange(K("a"), K("a"));
  auto res = VerifyRangeRead(tree.root_digest(), K("b"), K("a"), vo);
  EXPECT_TRUE(res.status().IsInvalidArgument());
}

TEST(RangeReadTest, SerializationRoundTrip) {
  MerkleBTree tree;
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));
  RangeVO vo = tree.ProveRange(NumKey(30), NumKey(60));
  auto back = RangeVO::Deserialize(vo.Serialize());
  ASSERT_TRUE(back.ok());
  auto res = VerifyRangeRead(tree.root_digest(), NumKey(30), NumKey(60),
                             back->untrusted());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 31u);
}

// ---------------------------------------------------------------------------
// Parameterized sweep over fanouts: replay equivalence must hold for every
// tree geometry (this is the server/client contract).
// ---------------------------------------------------------------------------

class FanoutSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FanoutSweepTest, ReplayEquivalenceUnderMixedWorkload) {
  TreeParams params{.max_leaf_entries = GetParam(),
                    .max_internal_keys = GetParam()};
  MerkleBTree tree(params);
  Digest trusted = EmptyRootDigest();
  util::Rng rng(GetParam() * 1000 + 17);
  for (int step = 0; step < 600; ++step) {
    Bytes key = NumKey(rng.Uniform(120));
    if (rng.Uniform(4) != 0) {
      Bytes value = rng.RandomBytes(6);
      PointVO vo = tree.Upsert(key, value);
      auto root = VerifyAndApplyUpsert(trusted, params, key, value, vo);
      ASSERT_TRUE(root.ok()) << "fanout=" << GetParam() << " step=" << step;
      ASSERT_EQ(*root, tree.root_digest());
      trusted = *root;
    } else {
      bool found = false;
      PointVO vo = tree.Delete(key, &found);
      auto root = VerifyAndApplyDelete(trusted, key, vo);
      if (found) {
        ASSERT_TRUE(root.ok());
        ASSERT_EQ(*root, tree.root_digest());
        trusted = *root;
      } else {
        ASSERT_TRUE(root.status().IsNotFound());
      }
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutSweepTest,
                         ::testing::Values(2, 3, 4, 8, 16, 64));

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

TEST(CursorTest, EmptyTreeInvalid) {
  MerkleBTree tree;
  auto cursor = tree.NewCursor();
  cursor.SeekToFirst();
  EXPECT_FALSE(cursor.Valid());
  cursor.Seek(K("anything"));
  EXPECT_FALSE(cursor.Valid());
}

TEST(CursorTest, FullScanInOrder) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  const int kN = 200;
  util::Rng rng(3);
  std::vector<int> order(kN);
  for (int i = 0; i < kN; ++i) order[i] = i;
  rng.Shuffle(&order);
  for (int i : order) tree.Upsert(NumKey(i), NumKey(1000 + i));

  auto cursor = tree.NewCursor();
  cursor.SeekToFirst();
  int count = 0;
  for (; cursor.Valid(); cursor.Next()) {
    EXPECT_EQ(cursor.key(), NumKey(count));
    EXPECT_EQ(cursor.value(), NumKey(1000 + count));
    ++count;
  }
  EXPECT_EQ(count, kN);
}

TEST(CursorTest, SeekFindsLowerBound) {
  MerkleBTree tree;
  for (int i = 0; i < 100; i += 2) tree.Upsert(NumKey(i), K("v"));
  auto cursor = tree.NewCursor();
  cursor.Seek(NumKey(10));  // Present.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), NumKey(10));
  cursor.Seek(NumKey(11));  // Absent: next is 12.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), NumKey(12));
  cursor.Seek(NumKey(99));  // Past the end.
  EXPECT_FALSE(cursor.Valid());
}

TEST(CursorTest, SeekAcrossLeafBoundaries) {
  // Small fanout forces many leaves; seek to each key and scan 3 forward,
  // comparing against the flat item list.
  TreeParams params{.max_leaf_entries = 2, .max_internal_keys = 2};
  MerkleBTree tree(params);
  const int kN = 60;
  for (int i = 0; i < kN; ++i) tree.Upsert(NumKey(i), NumKey(i));
  auto items = tree.Items();
  auto cursor = tree.NewCursor();
  for (int i = 0; i < kN; ++i) {
    cursor.Seek(NumKey(i));
    for (int j = 0; j < 3 && i + j < kN; ++j) {
      ASSERT_TRUE(cursor.Valid()) << i << "+" << j;
      ASSERT_EQ(cursor.key(), items[i + j].first) << i << "+" << j;
      cursor.Next();
    }
  }
}

TEST(CursorTest, WorksOnIrregularDeleteShapedTree) {
  TreeParams params{.max_leaf_entries = 3, .max_internal_keys = 3};
  MerkleBTree tree(params);
  util::Rng rng(17);
  std::set<uint64_t> live;
  for (int i = 0; i < 300; ++i) {
    uint64_t k = rng.Uniform(80);
    if (rng.Uniform(3) == 0) {
      bool found;
      tree.Delete(NumKey(k), &found);
      live.erase(k);
    } else {
      tree.Upsert(NumKey(k), K("v"));
      live.insert(k);
    }
  }
  auto cursor = tree.NewCursor();
  cursor.SeekToFirst();
  auto it = live.begin();
  for (; cursor.Valid(); cursor.Next(), ++it) {
    ASSERT_NE(it, live.end());
    EXPECT_EQ(cursor.key(), NumKey(*it));
  }
  EXPECT_EQ(it, live.end());
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

TEST(BulkLoadTest, MatchesIncrementalContents) {
  std::vector<std::pair<Bytes, Bytes>> items;
  for (int i = 0; i < 500; ++i) items.emplace_back(NumKey(i), NumKey(7000 + i));
  auto tree = MerkleBTree::BulkLoad(items);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->size(), 500u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->Items(), items);
  // Proofs from a bulk-loaded tree verify like any other.
  auto read = VerifyPointRead(tree->root_digest(), NumKey(250),
                              tree->ProvePoint(NumKey(250)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(**read, NumKey(7250));
}

TEST(BulkLoadTest, EmptyAndSingle) {
  auto empty = MerkleBTree::BulkLoad({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->root_digest(), EmptyRootDigest());
  auto one = MerkleBTree::BulkLoad({{K("a"), K("1")}});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
  EXPECT_TRUE(one->CheckInvariants().ok());
}

TEST(BulkLoadTest, RejectsUnsortedAndDuplicates) {
  EXPECT_TRUE(MerkleBTree::BulkLoad({{K("b"), K("1")}, {K("a"), K("2")}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MerkleBTree::BulkLoad({{K("a"), K("1")}, {K("a"), K("2")}})
                  .status()
                  .IsInvalidArgument());
}

TEST(BulkLoadTest, AwkwardSizesKeepInvariants) {
  // Sizes chosen to hit the single-leftover-child regrouping path.
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  for (size_t n : {1u, 4u, 5u, 20u, 21u, 24u, 25u, 100u, 101u, 124u, 125u}) {
    std::vector<std::pair<Bytes, Bytes>> items;
    for (size_t i = 0; i < n; ++i) items.emplace_back(NumKey(i), K("v"));
    auto tree = MerkleBTree::BulkLoad(items, params);
    ASSERT_TRUE(tree.ok()) << "n=" << n;
    ASSERT_TRUE(tree->CheckInvariants().ok()) << "n=" << n;
    ASSERT_EQ(tree->size(), n);
    // Mutations on a bulk-loaded tree keep working.
    MerkleBTree t = std::move(tree).ValueOrDie();
    t.Upsert(NumKey(n + 1), K("x"));
    bool found = false;
    t.Delete(NumKey(0), &found);
    EXPECT_TRUE(found);
    ASSERT_TRUE(t.CheckInvariants().ok()) << "n=" << n;
  }
}

TEST(BulkLoadTest, PacksTighterThanIncremental) {
  TreeParams params{.max_leaf_entries = 8, .max_internal_keys = 8};
  std::vector<std::pair<Bytes, Bytes>> items;
  for (int i = 0; i < 5000; ++i) items.emplace_back(NumKey(i), K("v"));
  auto bulk = MerkleBTree::BulkLoad(items, params);
  ASSERT_TRUE(bulk.ok());
  MerkleBTree incremental(params);
  for (const auto& [k, v] : items) incremental.Upsert(k, v);
  EXPECT_LE(bulk->height(), incremental.height());
}

// ---------------------------------------------------------------------------
// Tree snapshots (server persistence)
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripPreservesRootDigest) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  util::Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    tree.Upsert(NumKey(rng.Uniform(200)), rng.RandomBytes(10));
  }
  // Deletions shape the tree irregularly; the snapshot must preserve the
  // exact shape, not just the contents.
  for (int i = 0; i < 60; ++i) {
    bool found;
    tree.Delete(NumKey(rng.Uniform(200)), &found);
  }
  Bytes snapshot = tree.Serialize();
  auto restored = MerkleBTree::Deserialize(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->root_digest(), tree.root_digest());
  EXPECT_EQ(restored->size(), tree.size());
  EXPECT_EQ(restored->Items(), tree.Items());
  EXPECT_TRUE(restored->CheckInvariants().ok());
  // A restored server keeps serving verifiable proofs.
  auto read = VerifyPointRead(tree.root_digest(), NumKey(10),
                              restored->ProvePoint(NumKey(10)));
  EXPECT_TRUE(read.ok());
}

// The snapshot bytes of a small seeded tree, pinned: Serialize() and the
// streamed SerializeTo() must keep writing exactly these bytes, or every
// data directory on disk stops loading.
TEST(SnapshotTest, SerializedBytesArePinned) {
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  util::Rng rng(56);
  for (int i = 0; i < 60; ++i) {
    tree.Upsert(NumKey(rng.Uniform(40)), rng.RandomBytes(1 + rng.Uniform(12)));
  }
  for (int i = 0; i < 10; ++i) {
    bool found;
    tree.Delete(NumKey(rng.Uniform(40)), &found);
  }
  const Bytes snapshot = tree.Serialize();
  EXPECT_EQ(snapshot.size(), 863u);
  EXPECT_EQ(util::HexEncode(crypto::Sha256::Hash(snapshot)),
            "d83e365300c6c3945dee862be8673b20a14480d40042cd2fa72e80e5ca2e3e92");

  // Large enough that the streamed writer hands out several chunks.
  MerkleBTree large(params);
  for (int i = 0; i < 400; ++i) large.Upsert(NumKey(i), rng.RandomBytes(1024));
  const Bytes large_snapshot = large.Serialize();
  EXPECT_EQ(large_snapshot.size(), 422294u);
  EXPECT_EQ(util::HexEncode(crypto::Sha256::Hash(large_snapshot)),
            "cfca3c6b3559f21536d9b6d31e4c5751ba9818ed82f30ab592308f3eba6a0820");
}

TEST(SnapshotTest, EmptyTreeRoundTrip) {
  MerkleBTree tree;
  auto restored = MerkleBTree::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->root_digest(), EmptyRootDigest());
  EXPECT_EQ(restored->size(), 0u);
}

TEST(SnapshotTest, TruncatedSnapshotRejected) {
  MerkleBTree tree;
  for (int i = 0; i < 50; ++i) tree.Upsert(NumKey(i), NumKey(i));
  Bytes snapshot = tree.Serialize();
  for (size_t cut : {size_t(0), size_t(4), snapshot.size() / 2,
                     snapshot.size() - 1}) {
    Bytes truncated(snapshot.begin(), snapshot.begin() + cut);
    EXPECT_FALSE(MerkleBTree::Deserialize(truncated).ok()) << "cut=" << cut;
  }
}

TEST(SnapshotTest, BadMagicRejected) {
  MerkleBTree tree;
  Bytes snapshot = tree.Serialize();
  snapshot[5] ^= 0xFF;
  EXPECT_TRUE(MerkleBTree::Deserialize(snapshot).status().IsInvalidArgument());
}

TEST(SnapshotTest, WrongEntryCountRejected) {
  MerkleBTree tree;
  tree.Upsert(K("a"), K("1"));
  Bytes snapshot = tree.Serialize();
  // The u64 size header sits right after the magic string and two u64
  // params; corrupt it.
  size_t size_off = 4 + 13 + 8 + 8;
  snapshot[size_off] ^= 0x01;
  EXPECT_TRUE(MerkleBTree::Deserialize(snapshot).status().IsCorruption());
}

TEST(SnapshotTest, FanoutBelowTwoRejected) {
  // An empty-tree snapshot written by hand, so its params can be anything.
  auto snapshot = [](uint64_t max_leaf, uint64_t max_internal) {
    util::Writer w;
    w.PutString("tcvs-mtree-v1");
    w.PutU64(max_leaf);
    w.PutU64(max_internal);
    w.PutU64(0);  // entries
    w.PutU8(1);   // root is a leaf...
    w.PutU32(0);  // ...with no entries
    return w.Take();
  };
  ASSERT_TRUE(MerkleBTree::Deserialize(snapshot(2, 2)).ok());
  for (const auto& [leaf, internal] :
       std::vector<std::pair<uint64_t, uint64_t>>{{1, 1}, {1, 8}, {8, 1},
                                                  {0, 0}}) {
    EXPECT_TRUE(MerkleBTree::Deserialize(snapshot(leaf, internal))
                    .status()
                    .IsInvalidArgument())
        << "leaf=" << leaf << " internal=" << internal;
  }
}

// ---------------------------------------------------------------------------
// VO size scaling (the O(log n) claim behind paper Figure 2)
// ---------------------------------------------------------------------------

TEST(VoSizeTest, GrowsLogarithmically) {
  TreeParams params{.max_leaf_entries = 8, .max_internal_keys = 8};
  MerkleBTree small(params), large(params);
  for (int i = 0; i < 100; ++i) small.Upsert(NumKey(i), K("v"));
  for (int i = 0; i < 10000; ++i) large.Upsert(NumKey(i), K("v"));
  size_t small_vo = small.ProvePoint(NumKey(50)).Serialize().size();
  size_t large_vo = large.ProvePoint(NumKey(5000)).Serialize().size();
  // 100x the data must cost far less than 100x the proof; logarithmic growth
  // means well under 4x here.
  EXPECT_LT(large_vo, small_vo * 4);
}

// ---------------------------------------------------------------------------
// Forged and stale proofs at every verify entry point
// ---------------------------------------------------------------------------

// Every entry point recomputes the root digest from the whole proof, so a
// self-consistent proof of a forged state and a replay of a once-valid stale
// proof both reach the trusted-root comparison: VerificationFailure, plus
// kVoMismatch evidence naming the trusted and the presented root. The VOs go
// through the wire, as a client's do.

enum class VerifyEntry { kPointRead, kUpsert, kDelete, kRangeRead };
enum class ProofAttack { kForgedState, kStaleReplay };

struct Proofs {
  Bytes point;  // ProvePoint(7)
  Bytes range;  // ProveRange(5, 9)
};

Proofs ProofsOf(const MerkleBTree& tree) {
  return {tree.ProvePoint(NumKey(7)).Serialize(),
          tree.ProveRange(NumKey(5), NumKey(9)).Serialize()};
}

Status VerifyWith(VerifyEntry entry, const Digest& trusted_root,
                  const TreeParams& params, const Proofs& proofs) {
  if (entry == VerifyEntry::kRangeRead) {
    auto vo = RangeVO::Deserialize(proofs.range);
    if (!vo.ok()) return vo.status();
    return VerifyRangeRead(trusted_root, NumKey(5), NumKey(9),
                           vo->untrusted())
        .status();
  }
  auto vo = PointVO::Deserialize(proofs.point);
  if (!vo.ok()) return vo.status();
  switch (entry) {
    case VerifyEntry::kPointRead:
      return VerifyPointRead(trusted_root, NumKey(7), vo->untrusted())
          .status();
    case VerifyEntry::kUpsert:
      return VerifyAndApplyUpsert(trusted_root, params, NumKey(7), K("next"),
                                  vo->untrusted())
          .status();
    default:
      return VerifyAndApplyDelete(trusted_root, NumKey(7), vo->untrusted())
          .status();
  }
}

std::string ProofAttackName(
    const ::testing::TestParamInfo<std::tuple<VerifyEntry, ProofAttack>>&
        info) {
  static const char* const kEntries[] = {"PointRead", "Upsert", "Delete",
                                         "RangeRead"};
  return std::string(kEntries[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == ProofAttack::kForgedState
              ? "_ForgedState"
              : "_StaleReplay");
}

class ProofAttackTest
    : public ::testing::TestWithParam<std::tuple<VerifyEntry, ProofAttack>> {};

TEST_P(ProofAttackTest, RejectedWithVoMismatchNamingBothRoots) {
  const auto [entry, attack] = GetParam();
  TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  MerkleBTree tree(params);
  for (int i = 0; i < 100; ++i) tree.Upsert(NumKey(i), NumKey(i));

  Digest trusted_root;
  Digest presented_root;
  Proofs proofs;
  if (attack == ProofAttack::kForgedState) {
    // A server that keeps a different database and proves it faithfully.
    MerkleBTree forged(params);
    for (int i = 0; i < 100; ++i) forged.Upsert(NumKey(i), NumKey(i));
    forged.Upsert(NumKey(7), K("forged"));
    trusted_root = tree.root_digest();
    presented_root = forged.root_digest();
    proofs = ProofsOf(forged);
  } else {
    // A server that replays a proof which verified before the root moved.
    proofs = ProofsOf(tree);
    presented_root = tree.root_digest();
    ASSERT_TRUE(VerifyWith(entry, presented_root, params, proofs).ok());
    tree.Upsert(NumKey(7), K("new-value"));
    trusted_root = tree.root_digest();
  }
  ASSERT_NE(trusted_root, presented_root);

  const std::vector<util::AuditEvent> before =
      util::AuditLog::Instance().Snapshot();
  const uint64_t last_seq = before.empty() ? 0 : before.back().seq;
  Status st = VerifyWith(entry, trusted_root, params, proofs);
  EXPECT_TRUE(st.IsVerificationFailure()) << st.ToString();

  bool saw = false;
  for (const auto& event : util::AuditLog::Instance().SnapshotSince(last_seq)) {
    if (event.kind != util::AuditEventKind::kVoMismatch) continue;
    saw = true;
    EXPECT_EQ(event.expected_digest, trusted_root);
    EXPECT_EQ(event.actual_digest, presented_root);
  }
  EXPECT_TRUE(saw) << "no kVoMismatch audit event";
}

INSTANTIATE_TEST_SUITE_P(
    AllEntryPoints, ProofAttackTest,
    ::testing::Combine(::testing::Values(VerifyEntry::kPointRead,
                                         VerifyEntry::kUpsert,
                                         VerifyEntry::kDelete,
                                         VerifyEntry::kRangeRead),
                       ::testing::Values(ProofAttack::kForgedState,
                                         ProofAttack::kStaleReplay)),
    ProofAttackName);

}  // namespace
}  // namespace mtree
}  // namespace tcvs
