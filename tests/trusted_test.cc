// Tests for the direct (non-simulated) verifying CVS client/server facade.

#include <gtest/gtest.h>

#include "core/protocol_core.h"
#include "cvs/trusted.h"
#include "util/audit.h"
#include "util/cost.h"
#include "util/random.h"

namespace tcvs {
namespace cvs {
namespace {

TEST(VerifyingClientTest, CommitCheckoutRoundTrip) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);

  auto rev = alice.Commit("main.c", "int main() {}\n", 0);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(*rev, 1u);

  auto rec = alice.Checkout("main.c");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->revision, 1u);
  EXPECT_EQ(rec->content, "int main() {}\n");
}

TEST(VerifyingClientTest, CheckoutMissingIsAuthenticatedNotFound) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  EXPECT_TRUE(alice.Checkout("missing.c").status().IsNotFound());
}

TEST(VerifyingClientTest, StaleCommitConflict) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  VerifyingClient bob(2, &server);

  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  ASSERT_TRUE(alice.Commit("f", "v2", 1).ok());
  auto stale = bob.Commit("f", "mine", 1);
  EXPECT_TRUE(stale.status().IsFailedPrecondition()) << stale.status().ToString();
  // The repository is untouched and bob can retry on the right base.
  EXPECT_EQ(bob.Checkout("f")->content, "v2");
  EXPECT_TRUE(bob.Commit("f", "merged", 2).ok());
}

TEST(VerifyingClientTest, CreateOverExistingIsAlreadyExists) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  EXPECT_TRUE(alice.Commit("f", "other", 0).status().IsAlreadyExists());
}

TEST(VerifyingClientTest, RemoveAndNotFound) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  EXPECT_TRUE(alice.Remove("f").ok());
  EXPECT_TRUE(alice.Checkout("f").status().IsNotFound());
  EXPECT_TRUE(alice.Remove("f").IsNotFound());
}

TEST(VerifyingClientTest, HonestMultiUserSyncUpPasses) {
  UntrustedServer server;
  VerifyingClient a(1, &server), b(2, &server), c(3, &server);
  ASSERT_TRUE(a.Commit("x", "ax", 0).ok());
  ASSERT_TRUE(b.Commit("y", "by", 0).ok());
  ASSERT_TRUE(c.Checkout("x").ok());
  ASSERT_TRUE(b.Commit("x", "bx", 1).ok());
  ASSERT_TRUE(a.Checkout("x").ok());
  EXPECT_TRUE(VerifyingClient::SyncUp({&a, &b, &c}).ok());
}

TEST(VerifyingClientTest, EmptyHistorySyncUpPasses) {
  UntrustedServer server;
  VerifyingClient a(1, &server), b(2, &server);
  EXPECT_TRUE(VerifyingClient::SyncUp({&a, &b}).ok());
}

TEST(VerifyingClientTest, OutOfBandTamperCaughtOnNextOperation) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "honest", 0).ok());
  // The vendor silently rewrites the file behind the protocol's back. The
  // next reply's pre-state no longer chains from what alice verified, but a
  // single client cannot see that per-op (she keeps no root digest across
  // ops in the multi-user protocol) — the sync-up catches it.
  server.mutable_tree_for_testing()->Upsert(
      util::ToBytes("f"), FileRecord{1, "evil"}.Serialize());
  auto rec = alice.Checkout("f");
  // The checkout itself verifies against the *claimed* state, so it returns
  // the tampered content...
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->content, "evil");
  // ...but the transition chain is now broken and the sync-up fails.
  Status st = VerifyingClient::SyncUp({&alice});
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
}

TEST(VerifyingClientTest, ForkAcrossTwoServersDetectedAtSyncUp) {
  // Model a forking vendor as two divergent replicas: alice talks to one,
  // bob to the other, after a common prefix.
  UntrustedServer server_a;
  VerifyingClient alice(1, &server_a);
  ASSERT_TRUE(alice.Commit("common.h", "#define V 1\n", 0).ok());

  // The vendor clones the state for bob and lets histories diverge.
  UntrustedServer server_b;
  VerifyingClient bob(2, &server_b);
  ASSERT_TRUE(bob.Commit("common.h", "#define V 1\n", 0).ok());

  ASSERT_TRUE(alice.Commit("common.h", "#define V 2\n", 1).ok());
  ASSERT_TRUE(bob.Commit("other.c", "int x;\n", 0).ok());

  Status st = VerifyingClient::SyncUp({&alice, &bob});
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
}

TEST(VerifyingClientTest, MisDecidedConditionalCommitDetected) {
  // A server that applies a commit whose condition is false (or rejects one
  // whose condition is true) is caught immediately: the decision is checked
  // against the authenticated pre-state. Simulate by tampering the stored
  // revision out-of-band so the server's view and the claim disagree...
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  // Force the stored record to revision 5; alice commits against base 5 —
  // the server applies (its view says 5), and the VO proves revision 5, so
  // this is consistent. Now commit against base 1: server rejects, VO says
  // current is 6 — still consistent. The decision check is exercised by the
  // consistency of both paths:
  server.mutable_tree_for_testing()->Upsert(util::ToBytes("f"),
                                            FileRecord{5, "v1"}.Serialize());
  EXPECT_TRUE(alice.Commit("f", "v2", 5).ok());
  EXPECT_TRUE(alice.Commit("f", "v3", 1).status().IsFailedPrecondition());
}

TEST(VerifyingClientTest, ManyClientsRandomOpsStayConsistent) {
  UntrustedServer server;
  std::vector<std::unique_ptr<VerifyingClient>> clients;
  std::vector<VerifyingClient*> raw;
  for (uint32_t u = 1; u <= 5; ++u) {
    clients.push_back(std::make_unique<VerifyingClient>(u, &server));
    raw.push_back(clients.back().get());
  }
  util::Rng rng(99);
  std::map<std::string, uint64_t> revision;  // Ground-truth revisions.
  for (int step = 0; step < 400; ++step) {
    VerifyingClient* c = raw[rng.Uniform(raw.size())];
    std::string path = "f" + std::to_string(rng.Uniform(6));
    switch (rng.Uniform(3)) {
      case 0: {
        uint64_t base = revision.count(path) ? revision[path] : 0;
        auto rev = c->Commit(path, "content" + std::to_string(step), base);
        ASSERT_TRUE(rev.ok()) << rev.status().ToString();
        revision[path] = *rev;
        break;
      }
      case 1: {
        auto rec = c->Checkout(path);
        if (revision.count(path)) {
          ASSERT_TRUE(rec.ok());
          ASSERT_EQ(rec->revision, revision[path]);
        } else {
          ASSERT_TRUE(rec.status().IsNotFound());
        }
        break;
      }
      case 2: {
        Status st = c->Remove(path);
        if (revision.count(path)) {
          ASSERT_TRUE(st.ok());
          revision.erase(path);
        } else {
          ASSERT_TRUE(st.IsNotFound());
        }
        break;
      }
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(VerifyingClient::SyncUp(raw).ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(VerifyingClient::SyncUp(raw).ok());
}

// ---------------------------------------------------------------------------
// Multi-file transactions (the paper's `commit <file names>`)
// ---------------------------------------------------------------------------

TEST(MultiFileTest, AtomicCommitAppliesAll) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  auto revs = alice.CommitMany({
      {cvs::FileOp::Kind::kCommit, "a.c", "A", 0},
      {cvs::FileOp::Kind::kCommit, "b.c", "B", 0},
      {cvs::FileOp::Kind::kCommit, "c.c", "C", 0},
  });
  ASSERT_TRUE(revs.ok()) << revs.status().ToString();
  EXPECT_EQ(*revs, (std::vector<uint64_t>{1, 1, 1}));
  // One transaction = one counter tick.
  EXPECT_EQ(server.ctr(), 1u);
  EXPECT_EQ(alice.Checkout("b.c")->content, "B");
}

TEST(MultiFileTest, AtomicCommitAllOrNothing) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  VerifyingClient bob(2, &server);
  ASSERT_TRUE(alice.Commit("a.c", "A1", 0).ok());
  ASSERT_TRUE(alice.Commit("b.c", "B1", 0).ok());
  ASSERT_TRUE(alice.Commit("b.c", "B2", 1).ok());  // b.c now at rev 2.

  // Bob commits both on stale b.c: the whole transaction must reject and
  // leave a.c untouched too.
  auto revs = bob.CommitMany({
      {cvs::FileOp::Kind::kCommit, "a.c", "A-bob", 1},
      {cvs::FileOp::Kind::kCommit, "b.c", "B-bob", 1},
  });
  EXPECT_TRUE(revs.status().IsFailedPrecondition());
  EXPECT_EQ(bob.Checkout("a.c")->content, "A1");
  EXPECT_EQ(bob.Checkout("b.c")->content, "B2");
  // Everything still verifies across clients.
  EXPECT_TRUE(VerifyingClient::SyncUp({&alice, &bob}).ok());
}

TEST(MultiFileTest, CheckoutManyMixesPresentAndAbsent) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("x", "X", 0).ok());
  auto records = alice.CheckoutMany({"x", "missing", "x"});
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_TRUE((*records)[0].has_value());
  EXPECT_FALSE((*records)[1].has_value());
  EXPECT_EQ((*records)[2]->content, "X");
}

TEST(MultiFileTest, SamePathTwiceInOneTransaction) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  // Create at rev 1 then immediately amend on top of it, atomically.
  auto revs = alice.CommitMany({
      {cvs::FileOp::Kind::kCommit, "f", "first", 0},
      {cvs::FileOp::Kind::kCommit, "f", "second", 1},
  });
  ASSERT_TRUE(revs.ok()) << revs.status().ToString();
  EXPECT_EQ(alice.Checkout("f")->content, "second");
  EXPECT_EQ(alice.Checkout("f")->revision, 2u);
}

TEST(MultiFileTest, CommitManyRejectsNonCommits) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  EXPECT_TRUE(alice.CommitMany({{cvs::FileOp::Kind::kCheckout, "f", "", 0}})
                  .status()
                  .IsInvalidArgument());
}

TEST(MultiFileTest, EmptyTransactionRejected) {
  UntrustedServer server;
  EXPECT_TRUE(server.Transact(1, {}).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Authenticated directory listings
// ---------------------------------------------------------------------------

TEST(ListDirTest, CompleteListingWithRevisions) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("src/a.c", "A", 0).ok());
  ASSERT_TRUE(alice.Commit("src/b.c", "B", 0).ok());
  ASSERT_TRUE(alice.Commit("src/b.c", "B2", 1).ok());
  ASSERT_TRUE(alice.Commit("docs/readme.md", "R", 0).ok());

  auto listing = alice.ListDir("src/");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  ASSERT_EQ(listing->size(), 2u);
  EXPECT_EQ((*listing)[0], (std::pair<std::string, uint64_t>{"src/a.c", 1}));
  EXPECT_EQ((*listing)[1], (std::pair<std::string, uint64_t>{"src/b.c", 2}));

  auto all = alice.ListDir("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);

  auto none = alice.ListDir("zzz/");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ListDirTest, ListingIsATransaction) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v", 0).ok());
  uint64_t lctr_before = alice.lctr();
  ASSERT_TRUE(alice.ListDir("").ok());
  EXPECT_EQ(alice.lctr(), lctr_before + 1);
  EXPECT_EQ(server.ctr(), 2u);
  // The read transaction folds into σ and the sync-up still passes.
  EXPECT_TRUE(VerifyingClient::SyncUp({&alice}).ok());
}

TEST(ListDirTest, HiddenFileDetectedViaTamper) {
  // A vendor hiding a file must alter the tree (the range proof is
  // complete), which breaks the transition chain at the next sync-up.
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("src/a.c", "A", 0).ok());
  ASSERT_TRUE(alice.Commit("src/secret.c", "S", 0).ok());
  bool found = false;
  server.mutable_tree_for_testing()->Delete(util::ToBytes("src/secret.c"),
                                            &found);
  ASSERT_TRUE(found);
  auto listing = alice.ListDir("src/");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 1u);  // The hidden file is gone...
  EXPECT_TRUE(VerifyingClient::SyncUp({&alice}).IsDeviationDetected());
}

// ---------------------------------------------------------------------------
// Client state persistence
// ---------------------------------------------------------------------------

TEST(ClientStateTest, SerializeRestoreContinuesSession) {
  UntrustedServer server;
  Bytes saved;
  {
    VerifyingClient alice(1, &server);
    ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
    saved = alice.state().Serialize();
  }
  auto state = ClientState::Deserialize(saved);
  ASSERT_TRUE(state.ok());
  VerifyingClient restored(*state, &server);
  EXPECT_EQ(restored.user_id(), 1u);
  EXPECT_EQ(restored.lctr(), 1u);
  ASSERT_TRUE(restored.Commit("f", "v2", 1).ok());
  EXPECT_TRUE(VerifyingClient::SyncUp({&restored}).ok());
}

TEST(ClientStateTest, SyncCheckOverPersistedStates) {
  UntrustedServer server;
  VerifyingClient a(1, &server), b(2, &server);
  ASSERT_TRUE(a.Commit("f", "v1", 0).ok());
  ASSERT_TRUE(b.Commit("g", "v2", 0).ok());
  EXPECT_TRUE(VerifyingClient::SyncCheck({a.state(), b.state()}).ok());
  // Corrupt one register: the check must fail.
  ClientState bad = b.state();
  bad.sigma[0] ^= 1;
  EXPECT_TRUE(
      VerifyingClient::SyncCheck({a.state(), bad}).IsDeviationDetected());
}

TEST(ClientStateTest, MalformedStateRejected) {
  EXPECT_FALSE(ClientState::Deserialize(util::ToBytes("junk")).ok());
}

// ---------------------------------------------------------------------------
// Transparency-log audits (append-only history)
// ---------------------------------------------------------------------------

TEST(LogAuditTest, HonestHistoryAuditsClean) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  EXPECT_TRUE(alice.AuditLog().ok());  // Empty log is consistent.
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  ASSERT_TRUE(alice.Commit("f", "v2", 1).ok());
  EXPECT_TRUE(alice.AuditLog().ok());
  EXPECT_EQ(alice.log_checkpoint_size(), 2u);
  ASSERT_TRUE(alice.Commit("g", "x", 0).ok());
  EXPECT_TRUE(alice.AuditLog().ok());  // Incremental consistency.
  EXPECT_EQ(alice.log_checkpoint_size(), 3u);
}

TEST(LogAuditTest, HistoryRewriteDetected) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  ASSERT_TRUE(alice.Commit("f", "v2", 1).ok());
  ASSERT_TRUE(alice.AuditLog().ok());
  // The vendor rewrites an already-audited log entry.
  server.rewrite_log_leaf_for_testing(0, util::ToBytes("fabricated"));
  ASSERT_TRUE(alice.Commit("f", "v3", 2).ok());
  const uint64_t size_before = alice.log_checkpoint_size();
  const crypto::Digest root_before = alice.state().log_root;
  Status st = alice.AuditLog();
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
  EXPECT_NE(st.message().find("rewritten"), std::string::npos);
  // A failed audit leaves the checkpoint where it was.
  EXPECT_EQ(alice.log_checkpoint_size(), size_before);
  EXPECT_EQ(alice.state().log_root, root_before);
}

TEST(LogAuditTest, RollbackDetectedBySizeAlone) {
  // Simulate a rollback by restoring an earlier server snapshot: the client
  // checkpoint is ahead of the log.
  UntrustedServer fresh;  // ctr 0, empty log: "restored from before".
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  ASSERT_TRUE(alice.AuditLog().ok());
  VerifyingClient alice_later(alice.state(), &fresh);
  Status st = alice_later.AuditLog();
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
  EXPECT_NE(st.message().find("rolled back"), std::string::npos);
  // A failed audit leaves the checkpoint where it was.
  EXPECT_EQ(alice_later.log_checkpoint_size(), 1u);
  EXPECT_EQ(alice_later.state().log_root, alice.state().log_root);
}

TEST(LogAuditTest, CheckpointSurvivesStatePersistence) {
  UntrustedServer server;
  Bytes saved;
  {
    VerifyingClient alice(1, &server);
    ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
    ASSERT_TRUE(alice.AuditLog().ok());
    saved = alice.state().Serialize();
  }
  auto state = ClientState::Deserialize(saved);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->log_size, 1u);
  VerifyingClient restored(*state, &server);
  ASSERT_TRUE(restored.Commit("f", "v2", 1).ok());
  EXPECT_TRUE(restored.AuditLog().ok());
  EXPECT_EQ(restored.log_checkpoint_size(), 2u);
}

TEST(VerifyingClientTest, ClientStateIsConstantSize) {
  UntrustedServer server;
  VerifyingClient alice(1, &server);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(alice.Commit("f" + std::to_string(i), "x", 0).ok());
  }
  // Registers never grow: two digests + two counters (§2.2.5).
  EXPECT_EQ(alice.sigma().size(), crypto::kDigestSize);
  EXPECT_EQ(alice.last().size(), crypto::kDigestSize);
  EXPECT_EQ(alice.lctr(), 200u);
}

// ---------------------------------------------------------------------------
// Canned replies: what the client does with one reply, isolated from the
// server that built it.
// ---------------------------------------------------------------------------

// Forwards to `inner`, except that a reply placed in `canned` answers the
// next Transact instead.
class CannedServer : public ServerApi {
 public:
  explicit CannedServer(ServerApi* inner) : inner_(inner) {}

  std::optional<util::Tainted<ServerReply>> canned;

  Result<util::Tainted<ServerReply>> Transact(
      uint32_t user, const std::vector<FileOp>& ops) override {
    if (!canned.has_value()) return inner_->Transact(user, ops);
    util::Tainted<ServerReply> reply = std::move(*canned);
    canned.reset();
    return reply;
  }
  Result<util::Tainted<ListReply>> List(uint32_t user,
                                        const std::string& prefix) override {
    return inner_->List(user, prefix);
  }
  Result<util::Tainted<LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override {
    return inner_->LogCheckpoint(old_size);
  }
  mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

 private:
  ServerApi* inner_;
};

// Hashes of one NodeView::VerifiedDigest pass over the reply's only VO.
uint64_t DigestPassHashes(const util::Tainted<ServerReply>& reply) {
  auto vo = mtree::PointVO::Deserialize(reply.untrusted().files.at(0).vo);
  EXPECT_TRUE(vo.ok());
  util::CostScope scope;
  EXPECT_TRUE(vo->untrusted().root.VerifiedDigest().ok());
  return scope.counters().hashes;
}

// The client hashes each VO once: one digest pass, then the replay, then
// the two fingerprints of the fold — no second or third pass over the VO.
TEST(SinglePassTest, CheckoutHashesTheVoOnce) {
  UntrustedServer server;
  VerifyingClient bob(2, &server);
  ASSERT_TRUE(bob.Commit("a.txt", "hello", 0).ok());
  auto reply =
      server.Transact(1, {FileOp{FileOp::Kind::kCheckout, "a.txt", "", 0}});
  ASSERT_TRUE(reply.ok());
  const uint64_t digest_pass = DigestPassHashes(*reply);
  ASSERT_GT(digest_pass, 0u);

  CannedServer canned(&server);
  canned.canned = std::move(*reply);
  VerifyingClient alice(1, &canned);
  util::CostScope scope;
  auto record = alice.Checkout("a.txt");
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->content, "hello");
  // A read replays nothing; the fold hashes the pre and post fingerprints.
  EXPECT_EQ(scope.counters().hashes, digest_pass + 2);
}

TEST(SinglePassTest, CommitHashesTheVoOnce) {
  UntrustedServer server;
  VerifyingClient bob(2, &server);
  ASSERT_TRUE(bob.Commit("a.txt", "hello", 0).ok());
  auto reply = server.Transact(
      1, {FileOp{FileOp::Kind::kCommit, "b.txt", "world", 0}});
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->untrusted().applied);
  ASSERT_EQ(server.tree().height(), 1u);  // One leaf: no split to replay.
  const uint64_t digest_pass = DigestPassHashes(*reply);
  ASSERT_GT(digest_pass, 0u);

  CannedServer canned(&server);
  canned.canned = std::move(*reply);
  VerifyingClient alice(1, &canned);
  util::CostScope scope;
  auto revision = alice.Commit("b.txt", "world", 0);
  ASSERT_TRUE(revision.ok()) << revision.status().ToString();
  // The replay hashes the new value and the one rewritten leaf; the fold
  // hashes the pre and post fingerprints.
  EXPECT_EQ(scope.counters().hashes, digest_pass + 2 + 2);
}

TEST(CounterCheckTest, RegressedCounterIsForkEvidence) {
  util::AuditLog::Instance().ResetForTesting();
  UntrustedServer server;
  CannedServer canned(&server);
  VerifyingClient alice(1, &canned);
  ASSERT_TRUE(alice.Commit("a.txt", "v1", 0).ok());
  // A reply recorded at counter 1, replayed after alice has moved past it.
  auto stale =
      server.Transact(9, {FileOp{FileOp::Kind::kCheckout, "a.txt", "", 0}});
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale->untrusted().ctr, 1u);
  ASSERT_TRUE(alice.Checkout("a.txt").ok());
  ASSERT_EQ(alice.gctr(), 3u);
  const Bytes last_before = alice.last();
  auto stale_vo = mtree::PointVO::Deserialize(stale->untrusted().files[0].vo);
  ASSERT_TRUE(stale_vo.ok());
  auto stale_root = mtree::CheckedVO::Check(*stale_vo);
  ASSERT_TRUE(stale_root.ok());

  canned.canned = std::move(*stale);
  Status st = alice.Checkout("a.txt").status();
  EXPECT_TRUE(st.IsDeviationDetected()) << st.ToString();
  EXPECT_EQ(alice.gctr(), 3u);  // Nothing folded.

  const util::AuditEvent* regression = nullptr;
  const util::AuditEvent* fork = nullptr;
  const std::vector<util::AuditEvent> events =
      util::AuditLog::Instance().Snapshot();
  for (const auto& e : events) {
    if (e.kind == util::AuditEventKind::kCounterRegression) regression = &e;
    if (e.kind == util::AuditEventKind::kForkDetected) fork = &e;
  }
  ASSERT_NE(regression, nullptr);
  EXPECT_EQ(regression->user, 1u);
  EXPECT_EQ(regression->ctr, 1u);
  EXPECT_EQ(regression->gctr, 3u);
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->user, 1u);
  EXPECT_EQ(fork->expected_digest, last_before);
  EXPECT_EQ(fork->actual_digest,
            core::StateFingerprint(stale_root->root(), 1, 1));
  util::AuditLog::Instance().ResetForTesting();
}

}  // namespace
}  // namespace cvs
}  // namespace tcvs
