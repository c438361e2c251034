#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/merkle_sig.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "crypto/winternitz.h"
#include "util/bytes.h"
#include "util/random.h"

namespace tcvs {
namespace crypto {
namespace {

std::string HexOf(const Bytes& b) { return util::HexEncode(b); }

// ---------------------------------------------------------------------------
// SHA-256 — NIST FIPS 180-4 test vectors
// ---------------------------------------------------------------------------

TEST(Sha256Test, EmptyMessage) {
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 h;
    h.Update(std::string_view(msg).substr(0, cut));
    h.Update(std::string_view(msg).substr(cut));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "cut=" << cut;
  }
}

TEST(Sha256Test, ResetRestoresInitialState) {
  Sha256 h;
  h.Update(std::string_view("garbage"));
  h.Reset();
  h.Update(std::string_view("abc"));
  EXPECT_EQ(h.Finish(), Sha256::Hash("abc"));
}

TEST(Sha256Test, BoundaryLengths) {
  // 55/56/64 bytes straddle the padding boundary.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 h;
    h.Update(msg);
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "len=" << len;
  }
}

TEST(Sha256Test, HashConcatIsConcatenation) {
  Bytes a = util::ToBytes("foo");
  Bytes b = util::ToBytes("bar");
  EXPECT_EQ(HashConcat(a, b), Sha256::Hash("foobar"));
  EXPECT_EQ(HashConcat(a, b, a), Sha256::Hash("foobarfoo"));
}

// ---------------------------------------------------------------------------
// SHA-256 engine dispatch — the SAME FIPS 180-4 vectors pinned against every
// engine (scalar, SHA-NI when the CPU has it) and against the multi-buffer
// HashMany path, so a bad fast path can never pass on one engine and fail on
// another.
// ---------------------------------------------------------------------------

class Sha256EngineTest : public ::testing::TestWithParam<Sha256Engine> {
 protected:
  void SetUp() override {
    if (!Sha256EngineSupported(GetParam())) {
      GTEST_SKIP() << "engine " << Sha256EngineName(GetParam())
                   << " not supported on this CPU";
    }
    ASSERT_TRUE(ForceSha256Engine(GetParam()));
    ASSERT_EQ(ActiveSha256Engine(), GetParam());
  }
  void TearDown() override { ResetSha256Engine(); }
};

TEST_P(Sha256EngineTest, Fips180v4Vectors) {
  // NIST FIPS 180-4 / NIST CAVP vectors: the empty message, "abc", the
  // two-block message, plus padding-boundary lengths checked against the
  // scalar engine having produced them (pinned digests are engine-blind).
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexOf(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(HexOf(Sha256::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST_P(Sha256EngineTest, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256EngineTest, PaddingBoundariesMatchPinnedScalarDigests) {
  // Digests computed once with the scalar reference; every engine must
  // reproduce them bit-for-bit across the 55/56/64-byte padding boundaries.
  const std::pair<size_t, const char*> pinned[] = {
      {55u, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56u, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {64u, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65u, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
  };
  for (const auto& [len, hex] : pinned) {
    EXPECT_EQ(HexOf(Sha256::Hash(std::string(len, 'x'))), hex)
        << "len=" << len;
  }
}

TEST_P(Sha256EngineTest, HashManyMatchesSequentialHashing) {
  // Multi-buffer path on this engine: mixed single-block (even/odd counts,
  // so both the pair path and the leftover-lane path run) and multi-block
  // messages, all of which must equal per-message Sha256::Hash.
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 16u}) {
    std::vector<Bytes> messages;
    for (size_t i = 0; i < n; ++i) {
      // Lengths sweep 0..55 (single block), plus >55 multi-block stragglers.
      size_t len = (i % 4 == 3) ? 100 + i : (i * 13) % 56;
      messages.push_back(Bytes(len, static_cast<uint8_t>('a' + i)));
    }
    std::vector<Digest> batched = HashMany(messages);
    ASSERT_EQ(batched.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i], Sha256::Hash(messages[i])) << "n=" << n
                                                       << " i=" << i;
    }
  }
}

TEST_P(Sha256EngineTest, HashManyDigestsMayAliasInputs) {
  // The WOTS chain walker hashes digests in place: out[i] aliasing in[i]
  // is part of the HashManyInto contract.
  std::vector<Digest> chain = {Sha256::Hash("seed0"), Sha256::Hash("seed1"),
                               Sha256::Hash("seed2")};
  std::vector<Digest> expect = chain;
  for (auto& d : expect) d = Sha256::Hash(d);
  std::vector<const Bytes*> ptrs = {&chain[0], &chain[1], &chain[2]};
  HashManyInto(ptrs.data(), ptrs.size(), chain.data());
  EXPECT_EQ(chain, expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, Sha256EngineTest,
    ::testing::Values(Sha256Engine::kScalar, Sha256Engine::kShaNi),
    [](const ::testing::TestParamInfo<Sha256Engine>& info) {
      return Sha256EngineName(info.param);
    });

// ---------------------------------------------------------------------------
// HMAC-SHA256 — RFC 4231 test vectors
// ---------------------------------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexOf(HmacSha256(key, util::ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexOf(HmacSha256(util::ToBytes("Jefe"),
                             util::ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(HexOf(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  EXPECT_EQ(
      HexOf(HmacSha256(key, util::ToBytes("Test Using Larger Than Block-Size "
                                          "Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(PrfTest, DistinctIndicesDistinctOutputs) {
  Bytes seed = util::ToBytes("seed");
  EXPECT_NE(Prf(seed, 0), Prf(seed, 1));
  EXPECT_NE(Prf2(seed, 0, 1), Prf2(seed, 1, 0));
  EXPECT_EQ(Prf(seed, 7), Prf(seed, 7));
}

// ---------------------------------------------------------------------------
// Winternitz one-time signatures
// ---------------------------------------------------------------------------

class WinternitzParamTest : public ::testing::TestWithParam<int> {};

TEST_P(WinternitzParamTest, SignVerifyRoundTrip) {
  WotsParams params{.w = GetParam()};
  WinternitzSigner signer(util::ToBytes("wots-seed"), params);
  Bytes msg = util::ToBytes("checkout src/main.c");
  auto sig = signer.Sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(WinternitzSigner::VerifySignature(signer.public_key(), msg, *sig,
                                                params)
                  .ok());
}

TEST_P(WinternitzParamTest, WrongMessageFails) {
  WotsParams params{.w = GetParam()};
  WinternitzSigner signer(util::ToBytes("wots-seed-2"), params);
  Bytes msg = util::ToBytes("honest");
  auto sig = signer.Sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(WinternitzSigner::VerifySignature(signer.public_key(),
                                                util::ToBytes("evil"), *sig, params)
                  .IsVerificationFailure());
}

TEST_P(WinternitzParamTest, TamperedSignatureFails) {
  WotsParams params{.w = GetParam()};
  WinternitzSigner signer(util::ToBytes("wots-seed-3"), params);
  Bytes msg = util::ToBytes("m");
  Bytes sig = *signer.Sign(msg);
  sig[5] ^= 0xff;
  EXPECT_TRUE(
      WinternitzSigner::VerifySignature(signer.public_key(), msg, sig, params)
          .IsVerificationFailure());
}

TEST_P(WinternitzParamTest, SignatureSizeMatchesParams) {
  WotsParams params{.w = GetParam()};
  WinternitzSigner signer(util::ToBytes("wots-seed-4"), params);
  Bytes sig = *signer.Sign(util::ToBytes("m"));
  EXPECT_EQ(sig.size(), params.total_chains() * kDigestSize);
  // Compressed public key is always one digest.
  EXPECT_EQ(signer.public_key().size(), kDigestSize);
}

INSTANTIATE_TEST_SUITE_P(AllW, WinternitzParamTest, ::testing::Values(1, 2, 4, 8));

TEST(WinternitzTest, ChunksChecksumInvariant) {
  // The checksum construction guarantees: increasing any message chunk
  // strictly decreases the checksum, preventing forgery-by-advancing-chains.
  WotsParams params{.w = 4};
  Digest md = Sha256::Hash("x");
  auto chunks = WinternitzSigner::Chunks(md, params);
  EXPECT_EQ(chunks.size(), params.total_chains());
  uint64_t checksum = 0;
  for (size_t i = 0; i < params.message_chains(); ++i) {
    checksum += params.chain_len() - chunks[i];
  }
  uint64_t encoded = 0;
  for (size_t i = 0; i < params.checksum_chains(); ++i) {
    encoded |= uint64_t(chunks[params.message_chains() + i]) << (4 * i);
  }
  EXPECT_EQ(checksum, encoded);
}

TEST(WinternitzTest, SecondSignRefused) {
  WinternitzSigner signer(util::ToBytes("wots-seed-5"));
  ASSERT_TRUE(signer.Sign(util::ToBytes("one")).ok());
  EXPECT_TRUE(signer.Sign(util::ToBytes("two")).status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Merkle signature scheme
// ---------------------------------------------------------------------------

TEST(MerkleSigTest, SignVerifyManyMessages) {
  MerkleSigner signer(util::ToBytes("mss-seed"), /*height=*/3);
  EXPECT_EQ(signer.remaining_signatures(), 8u);
  for (int i = 0; i < 8; ++i) {
    Bytes msg = util::ToBytes("message " + std::to_string(i));
    auto sig = signer.Sign(msg);
    ASSERT_TRUE(sig.ok()) << i;
    EXPECT_TRUE(
        MerkleSigner::VerifySignature(signer.public_key(), msg, *sig).ok())
        << i;
  }
  EXPECT_EQ(signer.remaining_signatures(), 0u);
}

TEST(MerkleSigTest, ExhaustionRefusesNinthSignature) {
  MerkleSigner signer(util::ToBytes("mss-seed-2"), 3);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(signer.Sign(util::ToBytes("m")).ok());
  EXPECT_TRUE(signer.Sign(util::ToBytes("m")).status().IsFailedPrecondition());
}

TEST(MerkleSigTest, WrongMessageFails) {
  MerkleSigner signer(util::ToBytes("mss-seed-3"), 2);
  Bytes sig = *signer.Sign(util::ToBytes("real"));
  EXPECT_TRUE(MerkleSigner::VerifySignature(signer.public_key(),
                                            util::ToBytes("fake"), sig)
                  .IsVerificationFailure());
}

TEST(MerkleSigTest, CrossLeafSignaturesAllVerify) {
  MerkleSigner signer(util::ToBytes("mss-seed-4"), 4);
  Bytes msg = util::ToBytes("same message, different leaves");
  Bytes s1 = *signer.Sign(msg);
  Bytes s2 = *signer.Sign(msg);
  EXPECT_NE(s1, s2);  // Different leaf index ⇒ different signature.
  EXPECT_TRUE(MerkleSigner::VerifySignature(signer.public_key(), msg, s1).ok());
  EXPECT_TRUE(MerkleSigner::VerifySignature(signer.public_key(), msg, s2).ok());
}

TEST(MerkleSigTest, TamperedAuthPathFails) {
  MerkleSigner signer(util::ToBytes("mss-seed-5"), 3);
  Bytes msg = util::ToBytes("m");
  Bytes sig = *signer.Sign(msg);
  sig[sig.size() - 1] ^= 0x80;  // Flip a bit in the last auth-path digest.
  EXPECT_TRUE(MerkleSigner::VerifySignature(signer.public_key(), msg, sig)
                  .IsVerificationFailure());
}

TEST(MerkleSigTest, MalformedSignatureRejected) {
  MerkleSigner signer(util::ToBytes("mss-seed-6"), 2);
  Bytes msg = util::ToBytes("m");
  Bytes sig = *signer.Sign(msg);
  Bytes truncated(sig.begin(), sig.begin() + 8);
  EXPECT_FALSE(
      MerkleSigner::VerifySignature(signer.public_key(), msg, truncated).ok());
  Bytes bad_pk(16, 0);
  EXPECT_TRUE(
      MerkleSigner::VerifySignature(bad_pk, msg, sig).IsInvalidArgument());
}

TEST(MerkleSigTest, GenericVerifyDispatch) {
  MerkleSigner signer(util::ToBytes("mss-seed-7"), 2);
  Bytes msg = util::ToBytes("dispatch");
  Bytes sig = *signer.Sign(msg);
  EXPECT_TRUE(Verify(SchemeId::kMerkleSig, signer.public_key(), msg, sig).ok());
  EXPECT_FALSE(
      Verify(SchemeId::kWinternitz, signer.public_key(), msg, sig).ok());
}

TEST(SignatureDispatchTest, RetiredSchemeByteIsInvalidArgument) {
  // Scheme byte 1 (the deleted Lamport scheme) names no verifier.
  MerkleSigner signer(util::ToBytes("mss-seed-retired"), 2);
  Bytes msg = util::ToBytes("retired");
  Bytes sig = *signer.Sign(msg);
  const SchemeId retired = static_cast<SchemeId>(1);
  EXPECT_TRUE(
      Verify(retired, signer.public_key(), msg, sig).IsInvalidArgument());
  std::vector<Status> batch =
      VerifyBatch({{retired, &signer.public_key(), &msg, &sig}});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].IsInvalidArgument()) << batch[0].ToString();
}

// ---------------------------------------------------------------------------
// Batched verification
// ---------------------------------------------------------------------------

TEST(VerifyBatchTest, AdvanceChainsMatchesSequentialWalk) {
  util::Rng rng(7);
  std::vector<Digest> chains;
  std::vector<uint32_t> steps;
  for (int i = 0; i < 23; ++i) {
    chains.push_back(rng.RandomBytes(kDigestSize));
    steps.push_back(static_cast<uint32_t>(rng.Uniform(18)));  // incl. 0
  }
  std::vector<Digest> expected = chains;
  for (size_t i = 0; i < expected.size(); ++i) {
    for (uint32_t s = 0; s < steps[i]; ++s) {
      expected[i] = Sha256::Hash(expected[i]);
    }
  }
  AdvanceChains(&chains, steps);
  EXPECT_EQ(chains, expected);
}

TEST(VerifyBatchTest, MatchesSequentialVerifyAcrossSchemes) {
  MerkleSigner mss(util::ToBytes("batch-mss-seed"), 3);
  WinternitzSigner wots(util::ToBytes("batch-wots-seed"));

  std::vector<Bytes> messages, signatures, keys;
  std::vector<SchemeId> schemes;
  for (int i = 0; i < 4; ++i) {
    messages.push_back(util::ToBytes("mss message " + std::to_string(i)));
    signatures.push_back(*mss.Sign(messages.back()));
    keys.push_back(mss.public_key());
    schemes.push_back(SchemeId::kMerkleSig);
  }
  messages.push_back(util::ToBytes("wots message"));
  signatures.push_back(*wots.Sign(messages.back()));
  keys.push_back(wots.public_key());
  schemes.push_back(SchemeId::kWinternitz);

  std::vector<VerifyRequest> requests;
  for (size_t i = 0; i < messages.size(); ++i) {
    requests.push_back({schemes[i], &keys[i], &messages[i], &signatures[i]});
  }
  std::vector<Status> results = VerifyBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].ToString();
    EXPECT_TRUE(Verify(schemes[i], keys[i], messages[i], signatures[i]).ok())
        << i;
  }
}

TEST(VerifyBatchTest, InvalidItemsFailIndividually) {
  MerkleSigner mss(util::ToBytes("batch-bad-seed"), 3);
  Bytes good_msg = util::ToBytes("good");
  Bytes good_sig = *mss.Sign(good_msg);
  Bytes wrong_msg = util::ToBytes("evil");
  Bytes tampered_sig = *mss.Sign(good_msg);
  tampered_sig[tampered_sig.size() - 1] ^= 0x80;
  Bytes truncated_sig(good_sig.begin(), good_sig.begin() + 8);
  const Bytes& pk = mss.public_key();

  std::vector<VerifyRequest> requests = {
      {SchemeId::kMerkleSig, &pk, &good_msg, &good_sig},
      {SchemeId::kMerkleSig, &pk, &wrong_msg, &good_sig},
      {SchemeId::kMerkleSig, &pk, &good_msg, &tampered_sig},
      {SchemeId::kMerkleSig, &pk, &good_msg, &truncated_sig},
  };
  std::vector<Status> results = VerifyBatch(requests);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok()) << results[0].ToString();
  EXPECT_TRUE(results[1].IsVerificationFailure());
  EXPECT_TRUE(results[2].IsVerificationFailure());
  EXPECT_FALSE(results[3].ok());
  // A bad neighbor never contaminates a good item: re-verify the good one
  // alone and batched, same verdict.
  EXPECT_TRUE(Verify(SchemeId::kMerkleSig, pk, good_msg, good_sig).ok());
}

TEST(VerifyBatchTest, EmptyBatchIsFine) {
  EXPECT_TRUE(VerifyBatch({}).empty());
}

// ---------------------------------------------------------------------------
// KeyStore / CA
// ---------------------------------------------------------------------------

TEST(KeyStoreTest, IssueAddVerify) {
  CertificateAuthority ca(util::ToBytes("ca-seed"), /*height=*/4);
  MerkleSigner user_key(util::ToBytes("user-1-seed"), 3);
  auto cert = ca.Issue(1, SchemeId::kMerkleSig, user_key.public_key());
  ASSERT_TRUE(cert.ok());

  KeyStore store(ca.public_key());
  ASSERT_TRUE(store.Add(*cert).ok());
  EXPECT_EQ(store.size(), 1u);

  Bytes msg = util::ToBytes("signed root digest");
  Bytes sig = *user_key.Sign(msg);
  EXPECT_TRUE(store.VerifyFrom(1, msg, sig).ok());
  EXPECT_TRUE(store.VerifyFrom(1, util::ToBytes("other"), sig)
                  .IsVerificationFailure());
}

TEST(KeyStoreTest, VerifyFromBatchMatchesVerifyFrom) {
  CertificateAuthority ca(util::ToBytes("ca-batch-seed"), /*height=*/4);
  KeyStore store(ca.public_key());
  std::vector<std::unique_ptr<MerkleSigner>> signers;
  for (uint32_t u = 1; u <= 3; ++u) {
    signers.push_back(std::make_unique<MerkleSigner>(
        util::ToBytes("user-" + std::to_string(u)), 2));
    ASSERT_TRUE(
        store.Add(*ca.Issue(u, SchemeId::kMerkleSig, signers.back()->public_key()))
            .ok());
  }
  std::vector<Bytes> messages, signatures;
  for (uint32_t u = 1; u <= 3; ++u) {
    messages.push_back(util::ToBytes("blob from " + std::to_string(u)));
    signatures.push_back(*signers[u - 1]->Sign(messages.back()));
  }
  Bytes unknown_msg = util::ToBytes("who");
  std::vector<KeyStore::SignatureClaim> claims = {
      {1, &messages[0], &signatures[0]},
      {2, &messages[1], &signatures[1]},
      {99, &unknown_msg, &signatures[0]},  // No certificate.
      {3, &messages[2], &signatures[2]},
      {3, &messages[1], &signatures[2]},  // Wrong message for this signature.
  };
  std::vector<Status> verdicts = store.VerifyFromBatch(claims);
  ASSERT_EQ(verdicts.size(), 5u);
  EXPECT_TRUE(verdicts[0].ok()) << verdicts[0].ToString();
  EXPECT_TRUE(verdicts[1].ok()) << verdicts[1].ToString();
  EXPECT_TRUE(verdicts[2].IsNotFound());
  EXPECT_TRUE(verdicts[3].ok()) << verdicts[3].ToString();
  EXPECT_TRUE(verdicts[4].IsVerificationFailure());
}

TEST(KeyStoreTest, ForgedCertificateRejected) {
  CertificateAuthority ca(util::ToBytes("ca-seed-2"), 4);
  CertificateAuthority rogue(util::ToBytes("rogue-seed"), 4);
  MerkleSigner user_key(util::ToBytes("user-seed"), 2);
  auto cert = rogue.Issue(1, SchemeId::kMerkleSig, user_key.public_key());
  ASSERT_TRUE(cert.ok());
  KeyStore store(ca.public_key());
  EXPECT_TRUE(store.Add(*cert).IsVerificationFailure());
  EXPECT_EQ(store.size(), 0u);
}

TEST(KeyStoreTest, RebindingDifferentKeyRejected) {
  CertificateAuthority ca(util::ToBytes("ca-seed-3"), 4);
  MerkleSigner k1(util::ToBytes("k1"), 2);
  MerkleSigner k2(util::ToBytes("k2"), 2);
  KeyStore store(ca.public_key());
  ASSERT_TRUE(store.Add(*ca.Issue(1, SchemeId::kMerkleSig, k1.public_key())).ok());
  // Same cert again is idempotent.
  ASSERT_TRUE(store.Add(*ca.Issue(1, SchemeId::kMerkleSig, k1.public_key())).ok());
  // Different key for the same principal is refused.
  EXPECT_TRUE(store.Add(*ca.Issue(1, SchemeId::kMerkleSig, k2.public_key()))
                  .IsAlreadyExists());
}

TEST(KeyStoreTest, UnknownPrincipalIsNotFound) {
  CertificateAuthority ca(util::ToBytes("ca-seed-4"), 4);
  KeyStore store(ca.public_key());
  EXPECT_TRUE(store.Get(99).status().IsNotFound());
  EXPECT_TRUE(store.VerifyFrom(99, util::ToBytes("m"), Bytes{}).IsNotFound());
}

}  // namespace
}  // namespace crypto
}  // namespace tcvs
