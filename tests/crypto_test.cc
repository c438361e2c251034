#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/merkle_sig.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "crypto/winternitz.h"
#include "util/audit.h"
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

// The one parameter set, w = 4; the suite keeps its per-w test names.
class WinternitzParamTest : public ::testing::TestWithParam<int> {};

TEST_P(WinternitzParamTest, SignVerifyRoundTrip) {
  WinternitzSigner signer(util::ToBytes("wots-seed"));
  Bytes msg = util::ToBytes("checkout src/main.c");
  auto sig = signer.Sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(*WinternitzSigner::PublicKeyFromSignature(msg, *sig),
            signer.public_key());
}

TEST_P(WinternitzParamTest, WrongMessageFails) {
  WinternitzSigner signer(util::ToBytes("wots-seed-2"));
  Bytes sig = *signer.Sign(util::ToBytes("honest"));
  EXPECT_NE(
      *WinternitzSigner::PublicKeyFromSignature(util::ToBytes("evil"), sig),
      signer.public_key());
}

TEST_P(WinternitzParamTest, TamperedSignatureFails) {
  WinternitzSigner signer(util::ToBytes("wots-seed-3"));
  Bytes msg = util::ToBytes("m");
  Bytes sig = *signer.Sign(msg);
  sig[5] ^= 0xff;
  EXPECT_NE(*WinternitzSigner::PublicKeyFromSignature(msg, sig),
            signer.public_key());
  sig.pop_back();
  EXPECT_TRUE(WinternitzSigner::PublicKeyFromSignature(msg, sig)
                  .status()
                  .IsInvalidArgument());
}

TEST_P(WinternitzParamTest, SignatureSizeMatchesParams) {
  ASSERT_EQ(GetParam(), kWotsW);
  WinternitzSigner signer(util::ToBytes("wots-seed-4"));
  Bytes sig = *signer.Sign(util::ToBytes("m"));
  EXPECT_EQ(sig.size(), 67 * kDigestSize);
  // Compressed public key is always one digest.
  EXPECT_EQ(signer.public_key().size(), kDigestSize);
}

INSTANTIATE_TEST_SUITE_P(AllW, WinternitzParamTest, ::testing::Values(kWotsW));

TEST(WinternitzTest, ChunksChecksumInvariant) {
  // The checksum construction guarantees: increasing any message chunk
  // strictly decreases the checksum, preventing forgery-by-advancing-chains.
  Digest md = Sha256::Hash("x");
  auto chunks = WinternitzSigner::Chunks(md);
  EXPECT_EQ(chunks.size(), kWotsChains);
  uint64_t checksum = 0;
  for (size_t i = 0; i < kWotsMessageChains; ++i) {
    checksum += kWotsChainLen - chunks[i];
  }
  uint64_t encoded = 0;
  for (size_t i = 0; i < kWotsChecksumChains; ++i) {
    encoded |= uint64_t(chunks[kWotsMessageChains + i]) << (4 * i);
  }
  EXPECT_EQ(checksum, encoded);
}

TEST(WinternitzTest, SecondSignRefused) {
  WinternitzSigner signer(util::ToBytes("wots-seed-5"));
  ASSERT_TRUE(signer.Sign(util::ToBytes("one")).ok());
  EXPECT_TRUE(signer.Sign(util::ToBytes("two")).status().IsFailedPrecondition());
}

TEST(WinternitzTest, AdvanceChainsMatchesSequentialWalk) {
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

TEST(MerkleSigTest, SignatureBytesArePinned) {
  // A height-3 key from a fixed seed: the first signature over a fixed
  // message, layout w byte ‖ leaf ‖ WOTS signature ‖ authentication path.
  MerkleSigner signer(util::ToBytes("mss-pin-seed"), 3);
  Bytes sig = *signer.Sign(util::ToBytes("h(M(D) || ctr)"));
  EXPECT_EQ(sig.size(), 1 + 8 + 4 + 67 * kDigestSize + 3 * kDigestSize);
  EXPECT_EQ(sig[0], kWotsW);
  EXPECT_EQ(HexOf(Sha256::Hash(sig)),
            "2e2b94d987ff320119a2aed96d5d8b116318043068395fac872f3b14804914d0");
}

TEST(MerkleSigTest, WidthByteOtherThanFourIsInvalidArgument) {
  MerkleSigner signer(util::ToBytes("mss-seed-w"), 2);
  Bytes msg = util::ToBytes("w");
  Bytes sig = *signer.Sign(msg);
  ASSERT_TRUE(Verify(signer.public_key(), msg, sig).ok());
  for (uint8_t w : {0, 1, 2, 8, 255}) {
    sig[0] = w;
    EXPECT_TRUE(Verify(signer.public_key(), msg, sig).IsInvalidArgument())
        << int(w);
  }
}

// The signature_verify_failure audit events emitted while `fn` runs.
std::vector<util::AuditEvent> SignatureFailuresDuring(
    const std::function<void()>& fn) {
  const std::vector<util::AuditEvent> before =
      util::AuditLog::Instance().Snapshot();
  fn();
  std::vector<util::AuditEvent> out;
  for (util::AuditEvent& e : util::AuditLog::Instance().SnapshotSince(
           before.empty() ? 0 : before.back().seq)) {
    if (e.kind == util::AuditEventKind::kSignatureVerifyFailure) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

TEST(SignatureAuditTest, VerifyAuditsEachFailureOnce) {
  MerkleSigner signer(util::ToBytes("mss-seed-audit"), 2);
  Bytes msg = util::ToBytes("audited");
  Bytes sig = *signer.Sign(msg);
  EXPECT_TRUE(SignatureFailuresDuring([&] {
                ASSERT_TRUE(Verify(signer.public_key(), msg, sig).ok());
              }).empty());
  std::vector<util::AuditEvent> events = SignatureFailuresDuring([&] {
    ASSERT_TRUE(Verify(signer.public_key(), util::ToBytes("forged"), sig)
                    .IsVerificationFailure());
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail,
            "MerkleSig: VerificationFailure: MSS root mismatch");
}

// ---------------------------------------------------------------------------
// KeyStore / CA
// ---------------------------------------------------------------------------

TEST(KeyStoreTest, IssueAddVerify) {
  CertificateAuthority ca(util::ToBytes("ca-seed"), /*height=*/4);
  MerkleSigner user_key(util::ToBytes("user-1-seed"), 3);
  auto cert = ca.Issue(1, user_key.public_key());
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

TEST(KeyStoreTest, VerifyFromAuditsEachFailureOnce) {
  CertificateAuthority ca(util::ToBytes("ca-audit-seed"), /*height=*/4);
  MerkleSigner user_key(util::ToBytes("user-audit-seed"), 2);
  KeyStore store(ca.public_key());
  ASSERT_TRUE(store.Add(*ca.Issue(1, user_key.public_key())).ok());
  Bytes msg = util::ToBytes("epoch state");
  Bytes sig = *user_key.Sign(msg);
  EXPECT_TRUE(SignatureFailuresDuring([&] {
                ASSERT_TRUE(store.VerifyFrom(1, msg, sig).ok());
              }).empty());
  std::vector<util::AuditEvent> events = SignatureFailuresDuring([&] {
    ASSERT_TRUE(store.VerifyFrom(1, util::ToBytes("other"), sig)
                    .IsVerificationFailure());
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail,
            "MerkleSig: VerificationFailure: MSS root mismatch");
}

TEST(KeyStoreTest, ForgedCertificateRejected) {
  CertificateAuthority ca(util::ToBytes("ca-seed-2"), 4);
  CertificateAuthority rogue(util::ToBytes("rogue-seed"), 4);
  MerkleSigner user_key(util::ToBytes("user-seed"), 2);
  auto cert = rogue.Issue(1, user_key.public_key());
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
  ASSERT_TRUE(store.Add(*ca.Issue(1, k1.public_key())).ok());
  // Same cert again is idempotent.
  ASSERT_TRUE(store.Add(*ca.Issue(1, k1.public_key())).ok());
  // Different key for the same principal is refused.
  EXPECT_TRUE(store.Add(*ca.Issue(1, k2.public_key()))
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
