// Quickstart: the two layers of trusted-cvs in five minutes.
//
//  1. The authenticated store: a Merkle B⁺-tree on the (untrusted) server,
//     a 32-byte trusted root digest on the user side, verification objects
//     in between (paper §4.1).
//  2. The multi-user protocol layer: a simulated server + users running
//     Protocol II, detecting a fork attack at the sync-up (paper §4.3).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/scenario.h"
#include "mtree/btree.h"
#include "mtree/vo.h"
#include "util/bytes.h"
#include "workload/workload.h"

using namespace tcvs;

namespace {

void SingleUserLayer() {
  std::printf("== Layer 1: authenticated key-value store ==\n");

  // Server side: the database lives in a Merkle B+-tree.
  mtree::MerkleBTree server_db;

  // User side: nothing but the root digest of the (empty) database.
  mtree::Digest root = mtree::EmptyRootDigest();
  std::printf("initial root digest: %s...\n",
              util::HexEncode(root).substr(0, 16).c_str());

  // Commit a file. The server returns a pre-state verification object; the
  // client verifies it and recomputes the new root locally.
  Bytes key = util::ToBytes("src/main.c");
  Bytes content = util::ToBytes("int main() { return 0; }\n");
  mtree::PointVO vo = server_db.Upsert(key, content);
  auto new_root =
      mtree::VerifyAndApplyUpsert(root, server_db.params(), key, content, vo);
  std::printf("commit verified: %s\n", new_root.ok() ? "yes" : "NO");
  if (new_root.ok()) root = *new_root;
  std::printf("client root == server root: %s\n",
              (root == server_db.root_digest()) ? "yes" : "NO");

  // Checkout with proof of membership.
  mtree::PointVO read_vo = server_db.ProvePoint(key);
  auto value = mtree::VerifyPointRead(root, key, read_vo);
  std::printf("checkout verified, content: %s",
              value.ok() && value->has_value()
                  ? util::ToString(**value).c_str()
                  : "MISSING\n");

  // A tampering server is caught immediately: serve a forged value.
  mtree::MerkleBTree evil_db = server_db.Clone();
  evil_db.Upsert(key, util::ToBytes("int main() { backdoor(); }\n"));
  mtree::PointVO forged_vo = evil_db.ProvePoint(key);
  auto forged = mtree::VerifyPointRead(root, key, forged_vo);
  std::printf("forged read rejected: %s (%s)\n\n",
              forged.ok() ? "NO — BROKEN" : "yes",
              forged.status().ToString().c_str());
}

void MultiUserLayer() {
  std::printf("== Layer 2: multi-user deviation detection (Protocol II) ==\n");

  core::ScenarioConfig config;
  config.protocol = core::ProtocolKind::kProtocolII;
  config.num_users = 4;
  config.sync_k = 6;
  // The server forks users 3,4 onto a stale branch at round 60 — the
  // multi-user availability violation of the paper's introduction.
  config.attack.schedule = {
      {.kind = core::AttackKind::kFork, .at = 60, .victims = {3, 4}}};

  workload::CvsWorkloadOptions opts;
  opts.num_users = 4;
  opts.ops_per_user = 25;
  opts.offline_probability = 0.0;
  core::Scenario scenario(config, workload::MakeCvsWorkload(opts));
  core::ScenarioReport report = scenario.Run(4000);

  std::printf("attack engaged at round : %llu\n",
              static_cast<unsigned long long>(report.attack_engaged_round));
  std::printf("detected                : %s\n", report.detected ? "yes" : "no");
  std::printf("detected at round       : %llu (by user %u)\n",
              static_cast<unsigned long long>(report.detection_round),
              report.detector);
  std::printf("reason                  : %s\n", report.detection_reason.c_str());
  std::printf("ops after attack        : %llu (k = %u per user bound)\n",
              static_cast<unsigned long long>(report.detection_delay_ops),
              config.sync_k);
}

}  // namespace

int main() {
  SingleUserLayer();
  MultiUserLayer();
  return 0;
}
