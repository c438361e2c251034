// Transparency-log tests: RFC 6962 Merkle tree hashes, inclusion proofs,
// consistency proofs — generated and verified, across every (m, n) pair of a
// growing log, plus adversarial mutations — and a seeded differential test
// of the cached-node log against the naive recursive definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "crypto/translog.h"
#include "util/metrics.h"
#include "util/random.h"

namespace tcvs {
namespace crypto {
namespace {

Bytes E(int i) { return util::ToBytes("entry-" + std::to_string(i)); }

TEST(TransparencyLogTest, EmptyLogRoot) {
  TransparencyLog log;
  // RFC 6962: MTH of the empty list is the hash of the empty string.
  EXPECT_EQ(util::HexEncode(log.Root()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(TransparencyLogTest, Rfc6962LeafAndNodeHashes) {
  // RFC 6962 §2.1.1 test values: MTH for D = {0x} (one empty entry) is the
  // leaf hash H(0x00) =
  // 6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d.
  TransparencyLog log;
  log.Append(Bytes{});
  EXPECT_EQ(util::HexEncode(log.Root()),
            "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
}

TEST(TransparencyLogTest, RootChangesOnAppend) {
  TransparencyLog log;
  Digest prev = log.Root();
  for (int i = 0; i < 20; ++i) {
    log.Append(E(i));
    Digest cur = log.Root();
    EXPECT_NE(cur, prev);
    prev = cur;
  }
  EXPECT_EQ(log.size(), 20u);
}

TEST(TransparencyLogTest, RootAtReproducesHistoricalRoots) {
  TransparencyLog log;
  std::vector<Digest> roots;
  roots.push_back(log.Root());
  for (int i = 0; i < 40; ++i) {
    log.Append(E(i));
    roots.push_back(log.Root());
  }
  for (uint64_t n = 0; n <= 40; ++n) {
    EXPECT_EQ(*log.RootAt(n), roots[n]) << n;
  }
  EXPECT_FALSE(log.RootAt(41).ok());
}

TEST(TransparencyLogTest, InclusionProofsVerifyForAllEntriesAndSizes) {
  TransparencyLog log;
  const int kN = 33;  // Deliberately not a power of two.
  for (int i = 0; i < kN; ++i) log.Append(E(i));
  for (uint64_t n = 1; n <= kN; ++n) {
    Digest root = *log.RootAt(n);
    for (uint64_t i = 0; i < n; ++i) {
      auto proof = log.InclusionProof(i, n);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(
          TransparencyLog::VerifyInclusion(E(i), i, n, root, *proof).ok())
          << "entry " << i << " in log of " << n;
    }
  }
}

TEST(TransparencyLogTest, InclusionProofRejectsWrongEntry) {
  TransparencyLog log;
  for (int i = 0; i < 10; ++i) log.Append(E(i));
  auto proof = log.InclusionProof(3, 10);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(TransparencyLog::VerifyInclusion(E(4), 3, 10, log.Root(), *proof)
                  .IsVerificationFailure());
  EXPECT_TRUE(TransparencyLog::VerifyInclusion(E(3), 4, 10, log.Root(), *proof)
                  .IsVerificationFailure());
}

TEST(TransparencyLogTest, InclusionProofRejectsMutations) {
  TransparencyLog log;
  for (int i = 0; i < 21; ++i) log.Append(E(i));
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    uint64_t i = rng.Uniform(21);
    auto proof = *log.InclusionProof(i, 21);
    int mode = rng.Uniform(3);
    if (mode == 0 && !proof.empty()) {
      proof[rng.Uniform(proof.size())][rng.Uniform(32)] ^= 0x01;
    } else if (mode == 1 && !proof.empty()) {
      proof.pop_back();
    } else {
      proof.push_back(Sha256::Hash("junk"));
    }
    EXPECT_FALSE(
        TransparencyLog::VerifyInclusion(E(i), i, 21, log.Root(), proof).ok())
        << "trial " << trial;
  }
}

TEST(TransparencyLogTest, ConsistencyProofsVerifyForAllSizePairs) {
  TransparencyLog log;
  const int kN = 33;
  std::vector<Digest> roots{log.Root()};
  for (int i = 0; i < kN; ++i) {
    log.Append(E(i));
    roots.push_back(log.Root());
  }
  for (uint64_t m = 0; m <= kN; ++m) {
    for (uint64_t n = m; n <= kN; ++n) {
      auto proof = log.ConsistencyProof(m, n);
      ASSERT_TRUE(proof.ok()) << m << "," << n;
      EXPECT_TRUE(TransparencyLog::VerifyConsistency(m, n, roots[m], roots[n],
                                                     *proof)
                      .ok())
          << m << " -> " << n;
    }
  }
}

TEST(TransparencyLogTest, ConsistencyDetectsHistoryRewrite) {
  // The server rewrites an entry INSIDE the client's checkpointed prefix:
  // no consistency proof from that checkpoint to any extension of the
  // rewritten log can verify.
  TransparencyLog honest, rewritten;
  for (int i = 0; i < 10; ++i) {
    honest.Append(E(i));
    rewritten.Append(i == 5 ? util::ToBytes("REWRITTEN") : E(i));
  }
  Digest checkpoint = honest.Root();  // Client checkpoint at size 10.
  for (int i = 10; i < 20; ++i) {
    honest.Append(E(i));
    rewritten.Append(E(i));
  }

  auto ok_proof = honest.ConsistencyProof(10, 20);
  EXPECT_TRUE(TransparencyLog::VerifyConsistency(10, 20, checkpoint,
                                                 honest.Root(), *ok_proof)
                  .ok());
  auto bad_proof = rewritten.ConsistencyProof(10, 20);
  EXPECT_TRUE(TransparencyLog::VerifyConsistency(10, 20, checkpoint,
                                                 rewritten.Root(), *bad_proof)
                  .IsVerificationFailure());
  // A post-checkpoint divergence, by contrast, is legitimately consistent
  // with the checkpoint — consistency covers exactly the prefix.
  TransparencyLog forked;
  for (int i = 0; i < 10; ++i) forked.Append(E(i));
  forked.Append(util::ToBytes("different-suffix"));
  auto fork_proof = forked.ConsistencyProof(10, 11);
  EXPECT_TRUE(TransparencyLog::VerifyConsistency(10, 11, checkpoint,
                                                 forked.Root(), *fork_proof)
                  .ok());
}

TEST(TransparencyLogTest, ConsistencyDetectsTruncation) {
  // A server rolling back history presents a SMALLER log than the client's
  // checkpoint — the size comparison alone rejects it.
  TransparencyLog log;
  for (int i = 0; i < 15; ++i) log.Append(E(i));
  EXPECT_TRUE(
      TransparencyLog::VerifyConsistency(15, 12, log.Root(), *log.RootAt(12), {})
          .IsInvalidArgument());
}

TEST(TransparencyLogTest, ConsistencyRejectsMutations) {
  TransparencyLog log;
  for (int i = 0; i < 29; ++i) log.Append(E(i));
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    uint64_t m = 1 + rng.Uniform(27);
    uint64_t n = m + 1 + rng.Uniform(29 - m - 1);
    auto proof = *log.ConsistencyProof(m, n);
    if (proof.empty()) continue;
    proof[rng.Uniform(proof.size())][rng.Uniform(32)] ^= 0x01;
    EXPECT_FALSE(TransparencyLog::VerifyConsistency(m, n, *log.RootAt(m),
                                                    *log.RootAt(n), proof)
                     .ok())
        << "m=" << m << " n=" << n;
  }
}

TEST(TransparencyLogTest, LargeRandomizedSweep) {
  util::Rng rng(2026);
  TransparencyLog log;
  std::vector<Digest> roots{log.Root()};
  for (int i = 0; i < 200; ++i) {
    log.Append(rng.RandomBytes(1 + rng.Uniform(40)));
    roots.push_back(log.Root());
  }
  for (int trial = 0; trial < 300; ++trial) {
    uint64_t m = rng.Uniform(201);
    uint64_t n = m + rng.Uniform(201 - m);
    auto proof = log.ConsistencyProof(m, n);
    ASSERT_TRUE(proof.ok());
    ASSERT_TRUE(TransparencyLog::VerifyConsistency(m, n, roots[m], roots[n],
                                                   *proof)
                    .ok())
        << m << "->" << n;
  }
}

// ---------------------------------------------------------------------------
// Differential test: the cached log against the naive RFC 6962 recursion
// ---------------------------------------------------------------------------

// The reference: RFC 6962 §2.1 computed straight from the leaf hashes, with
// no cache — every subtree root is rehashed from its leaves on each use.
class NaiveLog {
 public:
  explicit NaiveLog(const std::vector<Digest>* leaves) : leaves_(leaves) {}

  Digest Root(uint64_t n) const { return SubtreeRoot(0, n); }

  std::vector<Digest> Inclusion(uint64_t index, uint64_t n) const {
    std::vector<Digest> proof;
    SubtreeInclusion(index, 0, n, &proof);
    return proof;
  }

  std::vector<Digest> Consistency(uint64_t m, uint64_t n) const {
    std::vector<Digest> proof;
    if (m != 0 && m != n) SubtreeConsistency(m, 0, n, true, &proof);
    return proof;
  }

 private:
  static Digest Node(const Digest& left, const Digest& right) {
    Sha256 h;
    const uint8_t tag = 0x01;
    h.Update(&tag, 1);
    h.Update(left);
    h.Update(right);
    return h.Finish();
  }

  static uint64_t Split(uint64_t n) {
    uint64_t k = 1;
    while (k * 2 < n) k *= 2;
    return k;
  }

  Digest SubtreeRoot(uint64_t lo, uint64_t hi) const {
    const uint64_t n = hi - lo;
    if (n == 0) return Sha256::Hash("");
    if (n == 1) return (*leaves_)[lo];
    const uint64_t k = Split(n);
    return Node(SubtreeRoot(lo, lo + k), SubtreeRoot(lo + k, hi));
  }

  void SubtreeInclusion(uint64_t index, uint64_t lo, uint64_t hi,
                        std::vector<Digest>* proof) const {
    const uint64_t n = hi - lo;
    if (n == 1) return;
    const uint64_t k = Split(n);
    if (index < k) {
      SubtreeInclusion(index, lo, lo + k, proof);
      proof->push_back(SubtreeRoot(lo + k, hi));
    } else {
      SubtreeInclusion(index - k, lo + k, hi, proof);
      proof->push_back(SubtreeRoot(lo, lo + k));
    }
  }

  void SubtreeConsistency(uint64_t m, uint64_t lo, uint64_t hi, bool lo_is_old,
                          std::vector<Digest>* proof) const {
    const uint64_t n = hi - lo;
    if (m == n) {
      if (!lo_is_old) proof->push_back(SubtreeRoot(lo, hi));
      return;
    }
    const uint64_t k = Split(n);
    if (m <= k) {
      SubtreeConsistency(m, lo, lo + k, lo_is_old, proof);
      proof->push_back(SubtreeRoot(lo + k, hi));
    } else {
      SubtreeConsistency(m - k, lo + k, hi, false, proof);
      proof->push_back(SubtreeRoot(lo, lo + k));
    }
  }

  const std::vector<Digest>* leaves_;
};

Bytes Entry(uint64_t i) {
  Bytes b(8);
  for (int j = 0; j < 8; ++j) b[j] = static_cast<uint8_t>(i >> (8 * j));
  return b;
}

// Checks RootAt(n) (and Root() when n is the whole log), and InclusionProof
// and ConsistencyProof for a random index and old size, byte for byte
// against the reference.
void ExpectMatchesReference(const TransparencyLog& log, const NaiveLog& ref,
                            uint64_t n, util::Rng* rng) {
  const Digest root = ref.Root(n);
  ASSERT_EQ(*log.RootAt(n), root) << "n=" << n;
  if (n == log.size()) {
    ASSERT_EQ(log.Root(), root) << "n=" << n;
  }
  if (n == 0) return;
  const uint64_t index = rng->Uniform(n);
  ASSERT_EQ(*log.InclusionProof(index, n), ref.Inclusion(index, n))
      << "index=" << index << " n=" << n;
  const uint64_t m = rng->Uniform(n + 1);
  ASSERT_EQ(*log.ConsistencyProof(m, n), ref.Consistency(m, n))
      << "m=" << m << " n=" << n;
}

TEST(TransparencyLogCacheTest, MatchesNaiveRecursionUpToTwoToTheTwenty) {
  constexpr uint64_t kMax = uint64_t{1} << 20;
  util::Rng rng(24);
  // Dense below 300. Above, a seeded size per octave up to 2^17, each power
  // of two and its neighbours up to 2^12, and 2^20 itself: every check costs
  // the reference a rehash of each leaf, so the probes thin out as n grows.
  std::vector<uint64_t> sparse{kMax};
  for (uint64_t p = 512; p <= (uint64_t{1} << 17); p *= 2) {
    sparse.push_back(p + rng.Uniform(p));
    if (p <= 4096) sparse.insert(sparse.end(), {p - 1, p, p + 1});
  }
  std::sort(sparse.begin(), sparse.end());
  sparse.erase(std::unique(sparse.begin(), sparse.end()), sparse.end());

  TransparencyLog log;
  // The reference reads the same leaf hashes (LeafHash is not under test).
  std::vector<Digest> leaves;
  NaiveLog ref(&leaves);
  ExpectMatchesReference(log, ref, 0, &rng);
  auto next_sparse = sparse.begin();
  for (uint64_t n = 1; n <= kMax; ++n) {
    log.Append(Entry(n));
    leaves.push_back(log.leaf_hash(n - 1));
    if (n >= 300) {
      if (next_sparse == sparse.end() || *next_sparse != n) continue;
      ++next_sparse;
    }
    ExpectMatchesReference(log, ref, n, &rng);
    // An older size stays provable against the grown log (kept below 4096
    // for the reference's sake).
    ExpectMatchesReference(log, ref, rng.Uniform(std::min<uint64_t>(n, 4096)),
                           &rng);
  }
  EXPECT_EQ(next_sparse, sparse.end());
}

TEST(TransparencyLogCacheTest, FromLeafHashesRebuildsTheCache) {
  TransparencyLog grown;
  for (uint64_t i = 0; i < 1000; ++i) grown.Append(Entry(i));
  std::vector<Digest> leaves;
  for (uint64_t i = 0; i < grown.size(); ++i) {
    leaves.push_back(grown.leaf_hash(i));
  }
  TransparencyLog restored = TransparencyLog::FromLeafHashes(leaves);
  NaiveLog ref(&leaves);
  util::Rng rng(7);
  for (uint64_t n = 0; n <= 1000; n += 37) {
    ASSERT_EQ(*restored.RootAt(n), *grown.RootAt(n)) << n;
    ExpectMatchesReference(restored, ref, n, &rng);
  }

  // Rewriting one leaf (a history-rewriting vendor) must reach every cached
  // node above it, not only the leaf.
  leaves[5] = TransparencyLog::LeafHash(util::ToBytes("REWRITTEN"));
  TransparencyLog rewritten = TransparencyLog::FromLeafHashes(leaves);
  EXPECT_NE(rewritten.Root(), grown.Root());
  EXPECT_EQ(*rewritten.RootAt(5), *grown.RootAt(5));
  EXPECT_NE(*rewritten.RootAt(6), *grown.RootAt(6));
  for (uint64_t n = 0; n <= 1000; n += 37) {
    ExpectMatchesReference(rewritten, ref, n, &rng);
  }
}

uint64_t HashesDuring(const std::function<void()>& fn) {
  util::Counter* hashes = util::MetricsRegistry::Instance().GetCounter(
      "crypto.sha256.hashes_total");
  const uint64_t before = hashes->value();
  fn();
  return hashes->value() - before;
}

TEST(TransparencyLogCacheTest, RootAndProofsHashOnlyAlongTheRightSpine) {
  TransparencyLog log;
  uint64_t append_hashes = 0;
  for (uint64_t i = 0; i < (uint64_t{1} << 16); ++i) {
    append_hashes += HashesDuring([&] { log.Append(Entry(i)); });
    if (log.size() == (uint64_t{1} << 16) - 1) {
      // 2^16 - 1 entries: sixteen complete subtrees, fifteen spine hashes.
      EXPECT_LE(HashesDuring([&] { (void)log.Root(); }), 64u);
      EXPECT_LE(HashesDuring([&] { (void)log.InclusionProof(0, log.size()); }),
                16u * 16u);
      EXPECT_LE(HashesDuring([&] {
                  (void)log.ConsistencyProof(12345, log.size());
                }),
                16u * 16u);
    }
  }
  EXPECT_LE(HashesDuring([&] { (void)log.Root(); }), 64u);
  // One leaf hash plus one amortised node hash per entry.
  EXPECT_EQ(append_hashes, 2 * log.size() - 1);
}

}  // namespace
}  // namespace crypto
}  // namespace tcvs
