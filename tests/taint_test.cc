// Tests for the trust boundary: the compile-time guarantees of Tainted<T>
// (util/untrusted.h: no implicit unwrap, no default construction, no raw()
// escape, endorsement only via registered verifier tokens) and of
// core::Transition (the register fold takes nothing else, and only a
// checked VO makes one) — and, end to end, that a tampered server reply is
// rejected BEFORE the registers change: the deviation is audited as
// kVoMismatch and the client's Protocol II registers (σ, last, gctr, lctr)
// are byte-identical to their pre-attack values.

#include "util/untrusted.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/protocol_core.h"
#include "cvs/trusted.h"
#include "mtree/vo.h"
#include "rpc/protocol.h"
#include "util/audit.h"

namespace tcvs {
namespace {

// ---------------------------------------------------------------------------
// Compile-time probes
// ---------------------------------------------------------------------------

// A Tainted<T> never becomes a T implicitly and never appears from nowhere.
static_assert(!std::is_convertible_v<util::Tainted<int>, int>,
              "Tainted must not implicitly convert to its payload");
static_assert(!std::is_convertible_v<int, util::Tainted<int>>,
              "payloads must be wrapped explicitly");
static_assert(std::is_constructible_v<util::Tainted<int>, int>,
              "explicit wrapping is the entry into quarantine");
static_assert(!std::is_default_constructible_v<util::Tainted<int>>,
              "a tainted value always comes from somewhere");
static_assert(!std::is_assignable_v<util::Tainted<int>&, int>,
              "no patching a quarantined value into shape");
static_assert(sizeof(util::Tainted<cvs::ServerReply>) ==
                  sizeof(cvs::ServerReply),
              "quarantine is zero-overhead");

// Every registered verifier token is visible to the SFINAE trait...
static_assert(util::IsRegisteredTaintVerifier<mtree::VoVerified>::value);
static_assert(util::IsRegisteredTaintVerifier<cvs::ChainVerified>::value);
static_assert(util::IsRegisteredTaintVerifier<rpc::EnvelopeChecked>::value);

// ...and an unregistered token is not, which makes Endorse() drop out of
// overload resolution (detection idiom — the negative probe for "this must
// not compile").
struct CounterfeitToken {};
static_assert(!util::IsRegisteredTaintVerifier<CounterfeitToken>::value);

template <typename T, typename V, typename = void>
struct CanEndorseWith : std::false_type {};
template <typename T, typename V>
struct CanEndorseWith<
    T, V,
    std::void_t<decltype(util::Endorse(std::declval<util::Tainted<T>>(),
                                       std::declval<const V&>()))>>
    : std::true_type {};

static_assert(CanEndorseWith<int, mtree::VoVerified>::value,
              "registered tokens unlock quarantine");
static_assert(!CanEndorseWith<int, CounterfeitToken>::value,
              "an unregistered functor must not unlock quarantine");
static_assert(!CanEndorseWith<int, int>::value);

// R3: there is no escape hatch beside Endorse. Member-name detection: if T
// declares any `raw` (overloaded, private or not), naming it through a class
// that also inherits Fallback::raw is ambiguous, and the specialization
// drops out.
struct RawFallback {
  int raw;
};
template <typename T>
struct WithRawFallback : T, RawFallback {};
template <typename T, typename = void>
struct HasRaw : std::true_type {};
template <typename T>
struct HasRaw<T, std::void_t<decltype(&WithRawFallback<T>::raw)>>
    : std::false_type {};

struct OverloadedRaw {  // A const/non-const accessor pair.
  const int& raw() const&;
  int& raw() &;
};
static_assert(HasRaw<OverloadedRaw>::value, "the probe detects a raw()");
struct NoRaw {
  int value;
};
static_assert(!HasRaw<NoRaw>::value, "the probe does not fire on every type");
static_assert(!HasRaw<util::Tainted<int>>::value,
              "Tainted<T> has no raw(): only Endorse moves the payload out");

// R2: the register fold takes a core::Transition and nothing else, and only
// a checked VO (core::VoChain, core::ReadTransition) makes one, so a root
// borrowed from an unendorsed reply cannot reach the fold.
template <typename Void, typename... Args>
struct CanFoldImpl : std::false_type {};
template <typename... Args>
struct CanFoldImpl<std::void_t<decltype(std::declval<core::Registers&>().Fold(
                       std::declval<Args>()...))>,
                   Args...> : std::true_type {};
template <typename... Args>
constexpr bool kCanFold = CanFoldImpl<void, Args...>::value;

static_assert(kCanFold<const core::Transition&, uint32_t>,
              "a transition folds");
static_assert(!kCanFold<const crypto::Digest&, const crypto::Digest&, uint64_t,
                        uint32_t, uint32_t>,
              "raw (pre_root, post_root, ctr, creator, user) must not fold");
static_assert(!std::is_constructible_v<core::Transition, crypto::Digest,
                                       crypto::Digest, uint64_t, uint32_t>,
              "a transition cannot be built from raw values");
static_assert(!std::is_default_constructible_v<core::Transition>,
              "a transition always comes from a checked VO");

// ---------------------------------------------------------------------------
// Wrapper semantics
// ---------------------------------------------------------------------------

TEST(TaintedTest, BorrowInspectsAndEndorseUnwraps) {
  util::Tainted<std::string> quarantined(std::string("payload"));
  EXPECT_EQ(quarantined.untrusted(), "payload");  // Borrow: inspection only.
  std::string verified =
      TCVS_ENDORSE(std::move(quarantined), mtree::VoVerified{});
  EXPECT_EQ(verified, "payload");
}

TEST(TaintedTest, QuarantinePoolHoldsTaintedValues) {
  // The sync/agg pool pattern from core/user.h: no default construction
  // means operator[] is unusable — insert_or_assign is the idiom.
  std::map<uint32_t, util::Tainted<int>> pool;
  pool.insert_or_assign(1, util::Tainted<int>(10));
  pool.insert_or_assign(2, util::Tainted<int>(20));
  pool.insert_or_assign(1, util::Tainted<int>(11));  // Re-delivery wins.
  int sum = 0;
  for (const auto& [id, value] : pool) sum += value.untrusted();
  EXPECT_EQ(sum, 31);
}

// ---------------------------------------------------------------------------
// End to end: tampering is caught before the registers change
// ---------------------------------------------------------------------------

// A Byzantine transport: forwards to the real server but lies about the
// transaction outcome. The lie is applied on a *copy borrowed from
// quarantine* and re-wrapped, which is what an attacker on the wire does:
// the re-wrapped reply is as untrusted as the original, and the client's
// chain walk must catch it.
class TamperingServer : public cvs::ServerApi {
 public:
  explicit TamperingServer(cvs::ServerApi* inner) : inner_(inner) {}

  void set_tamper(bool on) { tamper_ = on; }

  Result<util::Tainted<cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<cvs::FileOp>& ops) override {
    TCVS_ASSIGN_OR_RETURN(util::Tainted<cvs::ServerReply> reply,
                          inner_->Transact(user, ops));
    if (!tamper_) return reply;
    cvs::ServerReply forged = reply.untrusted();
    forged.applied = !forged.applied;  // Lie about the transaction outcome.
    return util::Tainted<cvs::ServerReply>(std::move(forged));
  }

  Result<util::Tainted<cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return inner_->List(user, prefix);
  }

  Result<util::Tainted<cvs::LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return inner_->LogCheckpoint(old_size);
  }

  mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

 private:
  cvs::ServerApi* inner_;
  bool tamper_ = false;
};

class TaintEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override { util::AuditLog::Instance().ResetForTesting(); }
  void TearDown() override { util::AuditLog::Instance().ResetForTesting(); }
};

TEST_F(TaintEndToEndTest, TamperedReplyRejectedBeforeRegisterFold) {
  cvs::UntrustedServer server;
  TamperingServer proxy(&server);
  cvs::VerifyingClient victim(7, &proxy);

  // Honest traffic first, so the registers hold non-trivial state.
  ASSERT_TRUE(victim.Commit("a.txt", "v1", 0).ok());
  ASSERT_TRUE(victim.Checkout("a.txt").ok());
  const Bytes sigma_before = victim.sigma();
  const Bytes last_before = victim.last();
  const uint64_t gctr_before = victim.gctr();
  const uint64_t lctr_before = victim.lctr();
  const size_t events_before = util::AuditLog::Instance().Snapshot().size();

  // The attack: the proxy flips `applied` on the next commit's reply.
  proxy.set_tamper(true);
  auto result = victim.Commit("a.txt", "v2", 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviationDetected())
      << result.status().ToString();

  // The deviation left a typed forensic record...
  std::vector<util::AuditEvent> events =
      util::AuditLog::Instance().Snapshot();
  ASSERT_GT(events.size(), events_before);
  bool saw_vo_mismatch = false;
  for (size_t i = events_before; i < events.size(); ++i) {
    if (events[i].kind == util::AuditEventKind::kVoMismatch &&
        events[i].user == 7u) {
      saw_vo_mismatch = true;
    }
  }
  EXPECT_TRUE(saw_vo_mismatch)
      << "tampered reply must be audited as kVoMismatch";

  // ...and nothing was folded: every register is byte-identical.
  EXPECT_EQ(victim.sigma(), sigma_before);
  EXPECT_EQ(victim.last(), last_before);
  EXPECT_EQ(victim.gctr(), gctr_before);
  EXPECT_EQ(victim.lctr(), lctr_before);

  // The client recovers once the transport is honest again (detection, not
  // corruption: quarantine kept the forged reply out of trusted state).
  proxy.set_tamper(false);
  auto retry = victim.Commit("b.txt", "w1", 0);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(victim.gctr(), gctr_before);
}

}  // namespace
}  // namespace tcvs
