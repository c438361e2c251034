// Storage engine tests: CRC, WAL prefix semantics under corruption, and
// crash-recovery of the durable repository server (same root digest ⇒
// verifying clients never notice the restart).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "storage/durable.h"
#include "storage/wal.h"
#include "util/cost.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/random.h"

namespace tcvs {
namespace storage {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("tcvs_storage_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard check value: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(util::ToBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes{}), 0x00000000u);
  // IEEE: CRC-32 of "a" is 0xE8B7BE43.
  EXPECT_EQ(Crc32(util::ToBytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, DetectsBitFlips) {
  util::Rng rng(1);
  Bytes data = rng.RandomBytes(100);
  uint32_t crc = Crc32(data);
  for (int i = 0; i < 50; ++i) {
    Bytes mutated = data;
    mutated[rng.Uniform(mutated.size())] ^= 1 << rng.Uniform(8);
    if (mutated == data) continue;
    EXPECT_NE(Crc32(mutated), crc);
  }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, AppendAndReadBack) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    auto wal = WalWriter::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(util::ToBytes("one")).ok());
    ASSERT_TRUE(wal->Append(util::ToBytes("two")).ok());
    ASSERT_TRUE(wal->Append(Bytes{}).ok());  // Empty record is legal.
  }
  bool truncated = true;
  auto records = ReadWal(path, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ(util::ToString((*records)[0]), "one");
  EXPECT_EQ(util::ToString((*records)[1]), "two");
  EXPECT_TRUE((*records)[2].empty());
}

TEST(WalTest, MissingFileIsEmpty) {
  TempDir dir;
  bool truncated = true;
  auto records = ReadWal(dir.str() + "/nope.log", &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_FALSE(truncated);
}

TEST(WalTest, ReopenAppends) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    auto wal = WalWriter::Open(path);
    ASSERT_TRUE(wal->Append(util::ToBytes("first")).ok());
  }
  {
    auto wal = WalWriter::Open(path);
    ASSERT_TRUE(wal->Append(util::ToBytes("second")).ok());
  }
  auto records = ReadWal(path, nullptr);
  ASSERT_EQ(records->size(), 2u);
}

TEST(WalTest, TornTailYieldsLongestValidPrefix) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  util::Rng rng(9);
  std::vector<Bytes> originals;
  {
    auto wal = WalWriter::Open(path);
    for (int i = 0; i < 20; ++i) {
      originals.push_back(rng.RandomBytes(1 + rng.Uniform(200)));
      ASSERT_TRUE(wal->Append(originals.back()).ok());
    }
  }
  auto full = ReadFileBytes(path);
  ASSERT_TRUE(full.ok());

  // Property: any truncation recovers a prefix of the records.
  for (int trial = 0; trial < 60; ++trial) {
    size_t cut = rng.Uniform(full->size() + 1);
    Bytes torn(full->begin(), full->begin() + cut);
    ASSERT_TRUE(AtomicWriteFile(path, torn).ok());
    bool truncated = false;
    auto records = ReadWal(path, &truncated);
    ASSERT_TRUE(records.ok());
    ASSERT_LE(records->size(), originals.size());
    for (size_t i = 0; i < records->size(); ++i) {
      ASSERT_EQ((*records)[i], originals[i]) << "trial " << trial;
    }
    EXPECT_EQ(truncated, cut != full->size());
  }
}

TEST(WalTest, CorruptMiddleStopsPrefix) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    auto wal = WalWriter::Open(path);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal->Append(util::ToBytes("record-" + std::to_string(i))).ok());
    }
  }
  auto full = ReadFileBytes(path);
  Bytes corrupt = *full;
  corrupt[corrupt.size() / 2] ^= 0xFF;  // Hits record ~2-3's payload or header.
  ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());
  bool truncated = false;
  auto records = ReadWal(path, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  EXPECT_LT(records->size(), 5u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ(util::ToString((*records)[i]), "record-" + std::to_string(i));
  }
}

// Deterministic torn-tail fixtures: one per way a crash can shear the last
// record (mid-header, mid-payload, payload landed but corrupt). Each must
// recover exactly the first record and report truncation.
//
// Layout on disk: rec1 = 8-byte header + "aaaa" (12 bytes), then rec2's
// 8-byte header + "bbbbbb".

class WalFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = dir_.str() + "/wal.log";
    auto wal = WalWriter::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(util::ToBytes("aaaa")).ok());
    ASSERT_TRUE(wal->Append(util::ToBytes("bbbbbb")).ok());
    auto full = ReadFileBytes(path_);
    ASSERT_TRUE(full.ok());
    full_ = *full;
    ASSERT_EQ(full_.size(), 12u + 14u);
  }

  void ExpectPrefixOfOne() {
    bool truncated = false;
    auto records = ReadWal(path_, &truncated);
    ASSERT_TRUE(records.ok());
    EXPECT_TRUE(truncated);
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ(util::ToString((*records)[0]), "aaaa");
  }

  TempDir dir_;
  std::string path_;
  Bytes full_;
};

TEST_F(WalFixtureTest, TruncatedHeader) {
  // Only 4 of the second record's 8 header bytes made it to disk.
  Bytes torn(full_.begin(), full_.begin() + 12 + 4);
  ASSERT_TRUE(AtomicWriteFile(path_, torn).ok());
  ExpectPrefixOfOne();
}

TEST_F(WalFixtureTest, TruncatedPayload) {
  // The second header landed, but only 3 of its 6 payload bytes did.
  Bytes torn(full_.begin(), full_.begin() + 12 + 8 + 3);
  ASSERT_TRUE(AtomicWriteFile(path_, torn).ok());
  ExpectPrefixOfOne();
}

TEST_F(WalFixtureTest, BadTailCrc) {
  // The full record landed but a payload byte rotted: the CRC must catch it.
  Bytes corrupt = full_;
  corrupt.back() ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path_, corrupt).ok());
  ExpectPrefixOfOne();
}

// ---------------------------------------------------------------------------
// WAL under injected faults (torn appends, failing fsync, atomic crash)
// ---------------------------------------------------------------------------

class WalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

TEST_F(WalFaultTest, SyncModeAppendsAndReadsBack) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  auto wal = WalWriter::Open(path, /*sync=*/true);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->sync());
  ASSERT_TRUE(wal->Append(util::ToBytes("durable")).ok());
  ASSERT_TRUE(wal->Append(util::ToBytes("records")).ok());
  bool truncated = true;
  auto records = ReadWal(path, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 2u);
}

TEST_F(WalFaultTest, InjectedTornAppendYieldsPrefix) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  auto wal = WalWriter::Open(path);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal->Append(util::ToBytes("rec-" + std::to_string(i))).ok());
  }
  // The next append "crashes" after 5 bytes of the framed record hit disk.
  util::FaultInjector::Instance().Arm(kFaultWalTorn,
                                      util::FaultSpec::OneShot(5));
  EXPECT_TRUE(wal->Append(util::ToBytes("lost")).IsIOError());
  wal->Close();

  bool truncated = false;
  auto records = ReadWal(path, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 3u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ(util::ToString((*records)[i]), "rec-" + std::to_string(i));
  }
}

TEST_F(WalFaultTest, DurableServerSurvivesTornAppend) {
  // Acceptance scenario: a torn WAL write during a transaction fails that
  // transaction, and recovery lands on the longest valid prefix.
  TempDir dir;
  mtree::TreeParams params;
  crypto::Digest digest_before;
  {
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok());
    cvs::VerifyingClient alice(1, server->get());
    ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());
    ASSERT_TRUE(alice.Commit("b.c", "v1", 0).ok());
    digest_before = (*server)->server()->tree().root_digest();

    util::FaultInjector::Instance().Arm(kFaultWalTorn,
                                        util::FaultSpec::OneShot(10));
    auto rev = alice.Commit("c.c", "v1", 0);
    ASSERT_FALSE(rev.ok());
    EXPECT_TRUE(rev.status().IsIOError());
    // Log-before-apply: the failed transaction never touched the tree.
    EXPECT_EQ((*server)->server()->ctr(), 2u);
  }
  auto recovered = DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->server()->ctr(), 2u);
  EXPECT_EQ((*recovered)->server()->tree().root_digest(), digest_before);
}

TEST_F(WalFaultTest, FailedFsyncSurfacesInSyncMode) {
  TempDir dir;
  auto wal = WalWriter::Open(dir.str() + "/wal.log", /*sync=*/true);
  ASSERT_TRUE(wal.ok());
  util::FaultInjector::Instance().Arm(kFaultWalSyncFail,
                                      util::FaultSpec::OneShot());
  EXPECT_TRUE(wal->Append(util::ToBytes("r")).IsIOError());
  // The fault auto-disarmed; the writer keeps working.
  EXPECT_TRUE(wal->Append(util::ToBytes("r2")).ok());
}

TEST_F(WalFaultTest, AtomicWriteCrashLeavesDestinationIntact) {
  TempDir dir;
  std::string path = dir.str() + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, util::ToBytes("v1")).ok());
  util::FaultInjector::Instance().Arm(kFaultAtomicCrash,
                                      util::FaultSpec::OneShot());
  EXPECT_TRUE(AtomicWriteFile(path, util::ToBytes("v2")).IsIOError());
  auto contents = ReadFileBytes(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(util::ToString(*contents), "v1");  // Destination untouched.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));  // The orphan temp.
}

// ---------------------------------------------------------------------------
// DurableServer recovery
// ---------------------------------------------------------------------------

TEST(DurableServerTest, RestartPreservesRootDigest) {
  TempDir dir;
  mtree::TreeParams params;
  crypto::Digest digest_before;
  uint64_t ctr_before = 0;
  {
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    cvs::VerifyingClient alice(1, server->get());
    ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());
    ASSERT_TRUE(alice.Commit("b.c", "v1", 0).ok());
    ASSERT_TRUE(alice.Commit("a.c", "v2", 1).ok());
    digest_before = (*server)->server()->tree().root_digest();
    ctr_before = (*server)->server()->ctr();
  }
  // "Restart".
  auto server = DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->server()->tree().root_digest(), digest_before);
  EXPECT_EQ((*server)->server()->ctr(), ctr_before);
  // Clients continue verifying seamlessly.
  cvs::VerifyingClient bob(2, server->get());
  auto rec = bob.Checkout("a.c");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->content, "v2");
}

TEST(DurableServerTest, TransparencyLogSurvivesRestart) {
  TempDir dir;
  mtree::TreeParams params;
  Bytes alice_state;
  {
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok());
    cvs::VerifyingClient alice(1, server->get());
    ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
    ASSERT_TRUE(alice.Commit("f", "v2", 1).ok());
    ASSERT_TRUE(alice.AuditLog().ok());
    ASSERT_TRUE((*server)->Checkpoint().ok());  // Log leaves land in snapshot.
    alice_state = alice.state().Serialize();
  }
  auto reopened = DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(reopened.ok());
  auto state = cvs::ClientState::Deserialize(alice_state);
  ASSERT_TRUE(state.ok());
  cvs::VerifyingClient alice(*state, reopened->get());
  // The restarted server must still extend the audited checkpoint.
  ASSERT_TRUE(alice.Commit("f", "v3", 2).ok());
  EXPECT_TRUE(alice.AuditLog().ok());
  EXPECT_EQ(alice.log_checkpoint_size(), 3u);
}

TEST(DurableServerTest, CheckpointFoldsWal) {
  TempDir dir;
  mtree::TreeParams params;
  auto server = DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(server.ok());
  cvs::VerifyingClient alice(1, server->get());
  ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
  EXPECT_EQ((*server)->wal_records(), 1u);
  ASSERT_TRUE((*server)->Checkpoint().ok());
  EXPECT_EQ((*server)->wal_records(), 0u);
  ASSERT_TRUE(alice.Commit("f", "v2", 1).ok());
  EXPECT_EQ((*server)->wal_records(), 1u);

  auto digest = (*server)->server()->tree().root_digest();
  server->reset();
  auto reopened = DurableServer::Open(dir.str(), params);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->server()->tree().root_digest(), digest);
}

TEST(DurableServerTest, CrashRecoveryProperty) {
  // Reference: apply transactions one by one on an in-memory server,
  // recording the root digest after each. Then: for random WAL cuts, the
  // recovered state must equal the reference state after some prefix.
  mtree::TreeParams params;
  util::Rng rng(77);

  std::vector<crypto::Digest> reference_digests;  // After i transactions.
  std::vector<std::pair<uint32_t, std::vector<cvs::FileOp>>> txns;
  {
    cvs::UntrustedServer reference(params);
    reference_digests.push_back(reference.tree().root_digest());
    std::map<std::string, uint64_t> rev;
    for (int i = 0; i < 30; ++i) {
      uint32_t user = 1 + rng.Uniform(3);
      std::string path = "f" + std::to_string(rng.Uniform(5));
      std::vector<cvs::FileOp> ops;
      uint64_t base = rev.count(path) ? rev[path] : 0;
      ops.push_back({cvs::FileOp::Kind::kCommit, path,
                     "content" + std::to_string(i), base});
      rev[path] = base + 1;
      ASSERT_TRUE(reference.Transact(user, ops).ok());
      reference_digests.push_back(reference.tree().root_digest());
      txns.emplace_back(user, std::move(ops));
    }
  }

  // Build the durable WAL by running all transactions.
  TempDir dir;
  {
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok());
    for (const auto& [user, ops] : txns) {
      ASSERT_TRUE((*server)->Transact(user, ops).ok());
    }
  }
  auto full_wal = ReadFileBytes(dir.str() + "/wal.log");
  ASSERT_TRUE(full_wal.ok());

  for (int trial = 0; trial < 25; ++trial) {
    size_t cut = rng.Uniform(full_wal->size() + 1);
    Bytes torn(full_wal->begin(), full_wal->begin() + cut);
    ASSERT_TRUE(AtomicWriteFile(dir.str() + "/wal.log", torn).ok());
    std::remove((dir.str() + "/snapshot.bin").c_str());

    auto recovered = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const crypto::Digest digest =
        (*recovered)->server()->tree().root_digest();
    uint64_t ctr = (*recovered)->server()->ctr();
    ASSERT_LT(ctr, reference_digests.size());
    EXPECT_EQ(digest, reference_digests[ctr])
        << "trial " << trial << ": recovered to a non-prefix state";
    recovered->reset();
    // Restore the full WAL for the next trial.
    ASSERT_TRUE(AtomicWriteFile(dir.str() + "/wal.log", *full_wal).ok());
    std::remove((dir.str() + "/snapshot.bin").c_str());
  }
}

// ---------------------------------------------------------------------------
// WAL group commit
// ---------------------------------------------------------------------------

uint64_t CounterValue(const std::string& name) {
  auto snap = util::MetricsRegistry::Instance().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(DurableServerTest, ConcurrentGroupCommitAmortizesFsyncs) {
  // N threads commit concurrently with fsync on and the batching window
  // enabled: every transaction must still verify and recover exactly once,
  // but the flush leader covers whole batches, so the device sees strictly
  // fewer fsyncs than appends.
  constexpr int kThreads = 4;
  constexpr int kCommits = 16;
  TempDir dir;
  mtree::TreeParams params;
  DurableOptions options;
  options.fsync = true;
  options.group_commit_window_us = 5000;

  const uint64_t fsyncs_before = CounterValue("storage.wal.fsyncs_total");
  const uint64_t appends_before = CounterValue("storage.wal.appends_total");
  crypto::Digest digest_before_close;
  {
    auto server = DurableServer::Open(dir.str(), params, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        cvs::VerifyingClient client(static_cast<uint32_t>(t + 1),
                                    server->get());
        const std::string path = "gc/file" + std::to_string(t);
        for (int i = 0; i < kCommits; ++i) {
          auto rev = client.Commit(path, "v" + std::to_string(i),
                                   static_cast<uint64_t>(i));
          if (!rev.ok() || *rev != static_cast<uint64_t>(i + 1)) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ((*server)->server()->ctr(),
              static_cast<uint64_t>(kThreads * kCommits));
    digest_before_close = (*server)->server()->tree().root_digest();
  }

  const uint64_t fsyncs = CounterValue("storage.wal.fsyncs_total") -
                          fsyncs_before;
  const uint64_t appends = CounterValue("storage.wal.appends_total") -
                           appends_before;
  EXPECT_EQ(appends, static_cast<uint64_t>(kThreads * kCommits));
  EXPECT_GE(fsyncs, 1u);
  // The amortization claim: at least one flush covered more than one
  // record. (With 64 concurrent commits and a 5 ms window the real batch
  // factor is far higher; the strict < is the non-flaky floor.)
  EXPECT_LT(fsyncs, appends);

  // Exactly-once replay: recovery reproduces the acknowledged state.
  auto recovered = DurableServer::Open(dir.str(), params, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->server()->ctr(),
            static_cast<uint64_t>(kThreads * kCommits));
  EXPECT_EQ((*recovered)->server()->tree().root_digest(), digest_before_close);
  cvs::VerifyingClient reader(100, recovered->get());
  for (int t = 0; t < kThreads; ++t) {
    auto rec = reader.Checkout("gc/file" + std::to_string(t));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->content, "v" + std::to_string(kCommits - 1));
    EXPECT_EQ(rec->revision, static_cast<uint64_t>(kCommits));
  }
}

TEST_F(WalFaultTest, DurableServerSurvivesTornAppendWithGroupCommitWindow) {
  // The PR-2 torn-tail fixture, re-run with fsync + the group-commit window
  // enabled: a torn WAL write still fails exactly that transaction before
  // it applies, and recovery still lands on the longest valid prefix.
  TempDir dir;
  mtree::TreeParams params;
  DurableOptions options;
  options.fsync = true;
  options.group_commit_window_us = 1000;
  crypto::Digest digest_before;
  {
    auto server = DurableServer::Open(dir.str(), params, options);
    ASSERT_TRUE(server.ok());
    cvs::VerifyingClient alice(1, server->get());
    ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());
    ASSERT_TRUE(alice.Commit("b.c", "v1", 0).ok());
    digest_before = (*server)->server()->tree().root_digest();

    util::FaultInjector::Instance().Arm(kFaultWalTorn,
                                        util::FaultSpec::OneShot(10));
    auto rev = alice.Commit("c.c", "v1", 0);
    ASSERT_FALSE(rev.ok());
    EXPECT_TRUE(rev.status().IsIOError());
    // Durable-before-apply: the failed transaction never touched the tree.
    EXPECT_EQ((*server)->server()->ctr(), 2u);
  }
  auto recovered = DurableServer::Open(dir.str(), params, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->server()->ctr(), 2u);
  EXPECT_EQ((*recovered)->server()->tree().root_digest(), digest_before);
}

TEST_F(WalFaultTest, GroupCommitFsyncFailureFailsTransactionWithoutApply) {
  // A failing fdatasync fails every transaction in the covering batch and
  // none of them applies: the reply must not exist for a record that never
  // became durable.
  TempDir dir;
  mtree::TreeParams params;
  DurableOptions options;
  options.fsync = true;
  options.group_commit_window_us = 1000;
  auto server = DurableServer::Open(dir.str(), params, options);
  ASSERT_TRUE(server.ok());
  cvs::VerifyingClient alice(1, server->get());
  ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());

  util::FaultInjector::Instance().Arm(kFaultWalSyncFail,
                                      util::FaultSpec::OneShot());
  auto rev = alice.Commit("b.c", "v1", 0);
  ASSERT_FALSE(rev.ok());
  EXPECT_TRUE(rev.status().IsIOError());
  EXPECT_EQ((*server)->server()->ctr(), 1u);

  // The fault auto-disarmed; the coordinator keeps working afterwards.
  ASSERT_TRUE(alice.Commit("c.c", "v1", 0).ok());
  EXPECT_EQ((*server)->server()->ctr(), 2u);
}

TEST(DurableServerTest, GroupCommitMetricsRegister) {
  TempDir dir;
  mtree::TreeParams params;
  DurableOptions options;
  options.fsync = true;
  const uint64_t flushes_before =
      CounterValue("storage.wal.group_commit.flushes_total");
  auto server = DurableServer::Open(dir.str(), params, options);
  ASSERT_TRUE(server.ok());
  cvs::VerifyingClient alice(1, server->get());
  ASSERT_TRUE(alice.Commit("a.c", "v1", 0).ok());
  ASSERT_TRUE(alice.Commit("b.c", "v1", 0).ok());
  EXPECT_GE(CounterValue("storage.wal.group_commit.flushes_total") - flushes_before,
            2u);
  auto snap = util::MetricsRegistry::Instance().Snapshot();
  auto hist = snap.histograms.find("storage.wal.group_commit.batch_size");
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_GE(hist->second.count(), 2u);
}

TEST(DurableServerTest, FsyncWaitIsBookedOnlyWhenFsyncIsOn) {
  mtree::TreeParams params;
  const std::vector<cvs::FileOp> commit = {
      {cvs::FileOp::Kind::kCommit, "a.c", "v1", 0}};
  {
    // fsync off: the flush is page-cache work, not a durability wait.
    TempDir dir;
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok());
    util::CostScope scope;
    ASSERT_TRUE((*server)->Transact(1, commit).ok());
    EXPECT_EQ(scope.counters().wal_appends, 1u);
    EXPECT_EQ(scope.counters().wal_fsync_wait_us, 0u);
  }
  {
    TempDir dir;
    DurableOptions options;
    options.fsync = true;
    options.emulated_sync_delay_us = 2000;
    auto server = DurableServer::Open(dir.str(), params, options);
    ASSERT_TRUE(server.ok());
    util::CostScope scope;
    ASSERT_TRUE((*server)->Transact(1, commit).ok());
    EXPECT_EQ(scope.counters().wal_appends, 1u);
    EXPECT_GE(scope.counters().wal_fsync_wait_us, 2000u);
  }
}

TEST(DurableServerTest, CorruptSnapshotRejected) {
  TempDir dir;
  mtree::TreeParams params;
  {
    auto server = DurableServer::Open(dir.str(), params);
    ASSERT_TRUE(server.ok());
    cvs::VerifyingClient alice(1, server->get());
    ASSERT_TRUE(alice.Commit("f", "v1", 0).ok());
    ASSERT_TRUE((*server)->Checkpoint().ok());
  }
  auto snapshot = ReadFileBytes(dir.str() + "/snapshot.bin");
  Bytes bad = *snapshot;
  bad[2] ^= 0xFF;  // Corrupt the magic.
  ASSERT_TRUE(AtomicWriteFile(dir.str() + "/snapshot.bin", bad).ok());
  EXPECT_FALSE(DurableServer::Open(dir.str(), params).ok());
}

}  // namespace
}  // namespace storage
}  // namespace tcvs
