// Robustness fuzzing: every parser and verifier in the trust boundary must
// treat arbitrary and mutated bytes as recoverable errors — never crash,
// never mis-verify.
//
// The key soundness property exercised here: whenever a mutated verification
// object still PASSES verification, the result it authenticates must equal
// the ground truth. Mutations may harmlessly touch bytes the proof does not
// depend on; they must never change what the proof *proves*.

#include <gtest/gtest.h>

#include "core/wire.h"
#include "cvs/diff.h"
#include "cvs/repository.h"
#include "mtree/btree.h"
#include "util/random.h"

namespace tcvs {
namespace {

Bytes NumKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08llu", static_cast<unsigned long long>(i));
  return util::ToBytes(buf);
}

Bytes Mutate(const Bytes& data, util::Rng* rng) {
  Bytes out = data;
  switch (rng->Uniform(4)) {
    case 0: {  // Flip a random bit.
      if (!out.empty()) out[rng->Uniform(out.size())] ^= 1 << rng->Uniform(8);
      break;
    }
    case 1: {  // Truncate.
      out.resize(rng->Uniform(out.size() + 1));
      break;
    }
    case 2: {  // Append junk.
      Bytes junk = rng->RandomBytes(1 + rng->Uniform(16));
      out.insert(out.end(), junk.begin(), junk.end());
      break;
    }
    case 3: {  // Overwrite a random span.
      if (!out.empty()) {
        size_t start = rng->Uniform(out.size());
        size_t len = std::min(out.size() - start, 1 + rng->Uniform(8));
        Bytes junk = rng->RandomBytes(len);
        std::copy(junk.begin(), junk.end(), out.begin() + start);
      }
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Verification-object fuzzing
// ---------------------------------------------------------------------------

TEST(FuzzTest, MutatedPointVoNeverMisVerifies) {
  mtree::TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  mtree::MerkleBTree tree(params);
  util::Rng rng(2024);
  const int kKeys = 120;
  for (int i = 0; i < kKeys; ++i) tree.Upsert(NumKey(i), rng.RandomBytes(12));

  int verified = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    uint64_t k = rng.Uniform(kKeys + 10);  // Include absent keys.
    Bytes truth_key = NumKey(k);
    std::optional<Bytes> truth = tree.Get(truth_key);
    Bytes wire = tree.ProvePoint(truth_key).Serialize();
    Bytes mutated = Mutate(wire, &rng);

    auto vo = mtree::PointVO::Deserialize(mutated);
    if (!vo.ok()) {
      ++rejected;
      continue;
    }
    auto result =
        mtree::VerifyPointRead(tree.root_digest(), truth_key, vo->untrusted());
    if (!result.ok()) {
      ++rejected;
      continue;
    }
    // Verification passed: the mutation must have been semantically inert.
    ++verified;
    ASSERT_EQ(*result, truth) << "iter " << iter
                              << ": a mutated proof authenticated a lie";
  }
  // The overwhelming majority of mutations must be caught.
  EXPECT_GT(rejected, 1500) << "verified=" << verified;
}

TEST(FuzzTest, MutatedUpsertVoNeverYieldsWrongRoot) {
  mtree::TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  mtree::MerkleBTree tree(params);
  util::Rng rng(4048);
  for (int i = 0; i < 80; ++i) tree.Upsert(NumKey(i), rng.RandomBytes(8));

  for (int iter = 0; iter < 1000; ++iter) {
    // Ground truth: apply the upsert on a clone.
    Bytes key = NumKey(rng.Uniform(90));
    Bytes value = rng.RandomBytes(8);
    mtree::MerkleBTree next = tree.Clone();
    next.Upsert(key, value);

    Bytes wire = tree.ProvePoint(key).Serialize();
    Bytes mutated = Mutate(wire, &rng);
    auto vo = mtree::PointVO::Deserialize(mutated);
    if (!vo.ok()) continue;
    auto new_root =
        mtree::VerifyAndApplyUpsert(tree.root_digest(), params, key, value,
                                    vo->untrusted());
    if (!new_root.ok()) continue;
    ASSERT_EQ(*new_root, next.root_digest())
        << "iter " << iter << ": mutated proof replayed to a wrong root";
  }
}

TEST(FuzzTest, RandomBytesNeverCrashVoParser) {
  util::Rng rng(77);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes junk = rng.RandomBytes(rng.Uniform(300));
    auto vo = mtree::PointVO::Deserialize(junk);
    if (vo.ok()) {
      // Parsed junk must still fail verification against any real root.
      auto r = mtree::VerifyPointRead(crypto::Sha256::Hash("root"), NumKey(1),
                                      vo->untrusted());
      EXPECT_FALSE(r.ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Wire-format fuzzing
// ---------------------------------------------------------------------------

TEST(FuzzTest, RandomBytesNeverCrashWireParsers) {
  util::Rng rng(88);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes junk = rng.RandomBytes(rng.Uniform(200));
    (void)core::QueryRequest::Deserialize(junk);
    (void)core::QueryResponse::Deserialize(junk);
    (void)core::RootSigUpload::Deserialize(junk);
    (void)core::SyncAnnounce::Deserialize(junk);
    (void)core::SyncReport::Deserialize(junk);
    (void)core::AggReport::Deserialize(junk);
    (void)core::AggTotal::Deserialize(junk);
    (void)core::AggSuccess::Deserialize(junk);
    (void)core::EpochStateBlob::Deserialize(junk);
    (void)core::EpochStatesRequest::Deserialize(junk);
    (void)core::EpochStatesReply::Deserialize(junk);
  }
}

TEST(FuzzTest, MutatedWireMessagesRoundTripOrFailCleanly) {
  util::Rng rng(99);
  core::QueryResponse resp;
  resp.qid = 7;
  resp.kind = sim::OpKind::kCommit;
  resp.found = true;
  resp.answer = rng.RandomBytes(20);
  resp.vo = rng.RandomBytes(50);
  resp.ctr = 123;
  resp.creator = 4;
  resp.sig = rng.RandomBytes(64);
  Bytes wire = resp.Serialize();
  for (int iter = 0; iter < 2000; ++iter) {
    (void)core::QueryResponse::Deserialize(Mutate(wire, &rng));
  }
}

TEST(FuzzTest, RandomBytesNeverCrashPatchParser) {
  util::Rng rng(111);
  for (int iter = 0; iter < 3000; ++iter) {
    auto patch = cvs::Patch::Deserialize(rng.RandomBytes(rng.Uniform(200)));
    if (patch.ok()) {
      // Parsed junk patches must apply cleanly or fail with Corruption —
      // never crash.
      (void)cvs::ApplyPatch({"a", "b", "c"}, *patch);
    }
  }
}

TEST(FuzzTest, RandomBytesNeverCrashSnapshotLoader) {
  util::Rng rng(222);
  mtree::MerkleBTree tree;
  for (int i = 0; i < 40; ++i) tree.Upsert(NumKey(i), NumKey(i));
  Bytes wire = tree.Serialize();
  for (int iter = 0; iter < 1500; ++iter) {
    auto restored = mtree::MerkleBTree::Deserialize(Mutate(wire, &rng));
    if (restored.ok()) {
      // A snapshot that loads must be internally consistent.
      EXPECT_TRUE(restored->CheckInvariants().ok());
    }
  }
}

TEST(FuzzTest, RandomBytesNeverCrashFileRecordParser) {
  util::Rng rng(333);
  for (int iter = 0; iter < 3000; ++iter) {
    (void)cvs::FileRecord::Deserialize(rng.RandomBytes(rng.Uniform(100)));
  }
}

}  // namespace
}  // namespace tcvs
