// Tests for the transport-free protocol core shared by the simulator and the
// deployment: the register fold, the counter check, the sync-up telescope and
// the VO chain.

#include <gtest/gtest.h>

#include <map>

#include "core/protocol_core.h"
#include "mtree/btree.h"
#include "util/audit.h"
#include "util/random.h"

namespace tcvs {
namespace core {
namespace {

crypto::Digest Root(const std::string& name) {
  return crypto::Sha256::Hash(name);
}

bool Closes(const std::vector<const Registers*>& users) {
  std::vector<Bytes> sigmas;
  std::vector<Bytes> lasts;
  for (const Registers* r : users) {
    sigmas.push_back(r->sigma);
    lasts.push_back(r->last);
  }
  return TelescopeCloses({InitialFingerprint(users.front()->tagged)}, lasts,
                         XorSum(sigmas));
}

// A seeded random workload over N users against a std::map model of the
// database: every transaction goes through the VO chain and the fold, the
// chain's answers and post-roots must match the model and the server, and
// the telescope must close after every prefix of the serial history.
TEST(RegistersTest, HonestSerialHistoryClosesAtEveryPrefix) {
  constexpr uint32_t kUsers = 5;
  const mtree::TreeParams params{.max_leaf_entries = 4,
                                 .max_internal_keys = 4};
  mtree::MerkleBTree server(params);
  std::map<Bytes, Bytes> model;
  std::vector<Registers> users(kUsers);
  std::vector<const Registers*> all;
  for (const Registers& r : users) all.push_back(&r);
  uint64_t ctr = 0;
  uint32_t creator = kInitialCreator;
  util::Rng rng(20061);
  for (int step = 0; step < 400; ++step) {
    const uint32_t user = static_cast<uint32_t>(rng.Uniform(kUsers)) + 1;
    Registers& regs = users[user - 1];
    const Bytes key = util::ToBytes("f" + std::to_string(rng.Uniform(40)));
    ChainOp op{ChainOp::Kind::kRead, key, {}};
    mtree::PointVO vo;
    switch (rng.Uniform(3)) {
      case 0:
        vo = server.ProvePoint(key);
        break;
      case 1:
        op.kind = ChainOp::Kind::kUpsert;
        op.value = rng.RandomBytes(8);
        vo = server.Upsert(key, op.value);
        break;
      default: {
        op.kind = ChainOp::Kind::kDelete;
        bool found = false;
        vo = server.Delete(key, &found);
        break;
      }
    }
    const util::Tainted<mtree::PointVO> wire(std::move(vo));
    ASSERT_TRUE(regs.CheckCounter(user, 0, ctr, Root("unused"), creator).ok());
    VoChain chain(params, user, ctr, regs.gctr);
    ASSERT_TRUE(chain.Link(wire).ok()) << "step " << step;
    auto value = chain.Step(op);
    ASSERT_TRUE(value.ok()) << "step " << step << ": "
                            << value.status().ToString();
    auto it = model.find(key);
    ASSERT_EQ(value->has_value(), it != model.end()) << "step " << step;
    if (it != model.end()) {
      EXPECT_EQ(**value, it->second) << "step " << step;
    }
    if (op.kind == ChainOp::Kind::kUpsert) model[key] = op.value;
    if (op.kind == ChainOp::Kind::kDelete) model.erase(key);
    ASSERT_EQ(chain.root(), server.root_digest()) << "step " << step;

    regs.Fold(chain.pre_root(), chain.root(), ctr, creator, user);
    ++ctr;
    creator = user;
    ASSERT_TRUE(Closes(all)) << "telescope open after step " << step;
  }
}

// The Figure-3 replay (§4.3) at the register level:
//   honest: S0 -(u2)-> S1 -(u1)-> S2 -(u2)-> S3 -(u3)-> S4
//   replay:                       S2 -(u4)-> S3 -(u5)-> S4
// Untagged, the duplicated segment cancels and u1's last explains the XOR;
// tagged, the duplicates carry their own creators and nothing cancels.
bool Figure3Closes(bool tagged) {
  std::vector<Registers> u(5, Registers(tagged));
  const crypto::Digest s0 = mtree::EmptyRootDigest();
  const crypto::Digest s1 = Root("S1"), s2 = Root("S2"), s3 = Root("S3"),
                       s4 = Root("S4");
  u[1].Fold(s0, s1, 0, kInitialCreator, 2);
  u[0].Fold(s1, s2, 1, 2, 1);
  u[1].Fold(s2, s3, 2, 1, 2);
  u[2].Fold(s3, s4, 3, 2, 3);
  u[3].Fold(s2, s3, 2, 1, 4);  // Replayed pre-state of O3.
  u[4].Fold(s3, s4, 3, 2, 5);  // Replayed pre-state of O4.
  return Closes({&u[0], &u[1], &u[2], &u[3], &u[4]});
}

TEST(RegistersTest, Figure3ReplayClosesUntaggedButFailsTagged) {
  EXPECT_TRUE(Figure3Closes(/*tagged=*/false));
  EXPECT_FALSE(Figure3Closes(/*tagged=*/true));
}

TEST(RegistersTest, OneForkedFoldFails) {
  Registers a;
  Registers b;
  const crypto::Digest s0 = mtree::EmptyRootDigest();
  a.Fold(s0, Root("S1"), 0, kInitialCreator, 1);
  b.Fold(Root("S1"), Root("S2"), 1, 1, 2);
  ASSERT_TRUE(Closes({&a, &b}));
  // a is shown S1 again instead of S2: a transition off a forked branch.
  a.Fold(Root("S1"), Root("S2'"), 1, 1, 1);
  EXPECT_FALSE(Closes({&a, &b}));
}

TEST(RegistersTest, RegressedCounterEmitsRegressionAndFork) {
  util::AuditLog::Instance().ResetForTesting();
  Registers r;
  r.Fold(mtree::EmptyRootDigest(), Root("S1"), 0, kInitialCreator, 7);
  ASSERT_TRUE(r.CheckCounter(7, 0, 1, Root("S1"), 7).ok());
  Status st = r.CheckCounter(7, 3, 0, mtree::EmptyRootDigest(), 0);
  ASSERT_TRUE(st.IsDeviationDetected());
  EXPECT_EQ(st.message(), "stale counter 0 (already saw 1)");
  const std::vector<util::AuditEvent> events =
      util::AuditLog::Instance().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, util::AuditEventKind::kCounterRegression);
  EXPECT_EQ(events[1].kind, util::AuditEventKind::kForkDetected);
  EXPECT_EQ(events[1].epoch, 3u);
  EXPECT_EQ(events[1].expected_digest, r.last);
  EXPECT_EQ(events[1].actual_digest, InitialFingerprint(/*tagged=*/true));
  util::AuditLog::Instance().ResetForTesting();
}

TEST(VoChainTest, BrokenChainEmitsVoMismatchNamingBothRoots) {
  util::AuditLog::Instance().ResetForTesting();
  mtree::MerkleBTree server;
  const Bytes key = util::ToBytes("a");
  const util::Tainted<mtree::PointVO> first(server.Upsert(key, {1}));
  const crypto::Digest after_first = server.root_digest();
  server.Upsert(util::ToBytes("b"), {2});  // A state the chain never saw.
  const util::Tainted<mtree::PointVO> second(server.ProvePoint(key));

  VoChain chain(server.params(), 4, 10, 10);
  ASSERT_TRUE(chain.Link(first).ok());
  ASSERT_TRUE(chain.Step({ChainOp::Kind::kUpsert, key, {1}}).ok());
  ASSERT_EQ(chain.root(), after_first);
  Status st = chain.Link(second);
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
  const std::vector<util::AuditEvent> events =
      util::AuditLog::Instance().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, util::AuditEventKind::kVoMismatch);
  EXPECT_EQ(events[0].user, 4u);
  EXPECT_EQ(events[0].expected_digest, after_first);
  EXPECT_EQ(events[0].actual_digest, server.root_digest());
  util::AuditLog::Instance().ResetForTesting();
}

TEST(VoChainTest, DeleteOfAbsentKeyIsAnAuthenticatedNoOp) {
  mtree::MerkleBTree server;
  server.Upsert(util::ToBytes("a"), {1});
  const crypto::Digest before = server.root_digest();
  bool found = true;
  const util::Tainted<mtree::PointVO> vo(
      server.Delete(util::ToBytes("zz"), &found));
  ASSERT_FALSE(found);
  VoChain chain(server.params(), 1, 0, 0);
  ASSERT_TRUE(chain.Link(vo).ok());
  auto value = chain.Step({ChainOp::Kind::kDelete, util::ToBytes("zz"), {}});
  ASSERT_TRUE(value.ok());
  EXPECT_FALSE(value->has_value());
  EXPECT_EQ(chain.pre_root(), before);
  EXPECT_EQ(chain.root(), before);
}

}  // namespace
}  // namespace core
}  // namespace tcvs
