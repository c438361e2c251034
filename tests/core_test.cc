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

// Commits `name` on `tree` as the server would and replays its point VO
// through a VoChain: the transition the tree's root took, labelled
// (ctr, creator).
Transition Commit(mtree::MerkleBTree& tree, const std::string& name,
                  uint64_t ctr, uint32_t creator) {
  const Bytes key = util::ToBytes(name);
  const Bytes value = util::ToBytes("state " + name);
  const util::Tainted<mtree::PointVO> vo(tree.Upsert(key, value));
  VoChain chain(tree.params(), /*user=*/0, ctr, creator, /*gctr=*/ctr);
  EXPECT_TRUE(chain.Link(vo).ok());
  EXPECT_TRUE(chain.Step({ChainOp::Kind::kUpsert, key, value}).ok());
  EXPECT_EQ(chain.root(), tree.root_digest());
  return std::move(chain).Finish();
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
    VoChain chain(params, user, ctr, creator, regs.gctr);
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

    regs.Fold(std::move(chain).Finish(), user);
    ++ctr;
    creator = user;
    ASSERT_TRUE(Closes(all)) << "telescope open after step " << step;
  }
}

// The Figure-3 replay (§4.3) at the register level:
//   honest: S0 -(u2)-> S1 -(u1)-> S2 -(u2)-> S3 -(u3)-> S4
//   replay:                       S2 -(u4)-> S3 -(u5)-> S4
// Untagged, the duplicated segment cancels and u1's last explains the XOR;
// tagged, the duplicates carry their own creators and nothing cancels. The
// replay line is the tree cloned at S2, as core::Branch::Clone does, so its
// commits reach the same S3 and S4.
bool Figure3Closes(bool tagged) {
  std::vector<Registers> u(5, Registers(tagged));
  mtree::MerkleBTree honest;
  const Transition o1 = Commit(honest, "S1", 0, kInitialCreator);
  const Transition o2 = Commit(honest, "S2", 1, 2);
  mtree::MerkleBTree replay = honest.Clone();
  const Transition o3 = Commit(honest, "S3", 2, 1);
  const Transition o4 = Commit(honest, "S4", 3, 2);
  const Transition r3 = Commit(replay, "S3", 2, 1);
  const Transition r4 = Commit(replay, "S4", 3, 2);
  EXPECT_EQ(r3.post_root(), o3.post_root());
  EXPECT_EQ(r4.post_root(), o4.post_root());
  u[1].Fold(o1, 2);
  u[0].Fold(o2, 1);
  u[1].Fold(o3, 2);
  u[2].Fold(o4, 3);
  u[3].Fold(r3, 4);  // Replayed pre-state of O3.
  u[4].Fold(r4, 5);  // Replayed pre-state of O4.
  return Closes({&u[0], &u[1], &u[2], &u[3], &u[4]});
}

TEST(RegistersTest, Figure3ReplayClosesUntaggedButFailsTagged) {
  EXPECT_TRUE(Figure3Closes(/*tagged=*/false));
  EXPECT_FALSE(Figure3Closes(/*tagged=*/true));
}

TEST(RegistersTest, OneForkedFoldFails) {
  Registers a;
  Registers b;
  mtree::MerkleBTree honest;
  a.Fold(Commit(honest, "S1", 0, kInitialCreator), 1);
  mtree::MerkleBTree fork = honest.Clone();
  b.Fold(Commit(honest, "S2", 1, 1), 2);
  ASSERT_TRUE(Closes({&a, &b}));
  // a is shown S1 again instead of S2: a transition off a forked branch.
  a.Fold(Commit(fork, "S2'", 1, 1), 1);
  EXPECT_FALSE(Closes({&a, &b}));
}

TEST(RegistersTest, RegressedCounterEmitsRegressionAndFork) {
  util::AuditLog::Instance().ResetForTesting();
  Registers r;
  mtree::MerkleBTree tree;
  const Transition s1 = Commit(tree, "S1", 0, kInitialCreator);
  ASSERT_EQ(s1.pre_root(), mtree::EmptyRootDigest());
  r.Fold(s1, 7);
  ASSERT_TRUE(r.CheckCounter(7, 0, 1, s1.post_root(), 7).ok());
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

  VoChain chain(server.params(), 4, 10, 2, 10);
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
  VoChain chain(server.params(), 1, 0, kInitialCreator, 0);
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
