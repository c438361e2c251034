// tcvs_fsck — offline integrity check of a tcvsd data directory.
//
// Loads the snapshot, replays the write-ahead log, validates every tree
// invariant and digest, and prints the checkpoint generation, the resulting
// root digest and counters.
// A truncated (torn) WAL tail is reported but is not an error — it is the
// expected artifact of a crash.
//
// Usage: tcvs_fsck DATA_DIR
// Exit codes: 0 healthy, 1 corrupt.

#include <cstdio>

#include "storage/durable.h"
#include "storage/wal.h"
#include "util/bytes.h"

using namespace tcvs;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: tcvs_fsck DATA_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];

  bool truncated = false;
  auto wal = storage::ReadWal(dir + "/wal.log", &truncated);
  if (!wal.ok()) {
    std::fprintf(stderr, "tcvs_fsck: wal unreadable: %s\n",
                 wal.status().ToString().c_str());
    return 1;
  }
  if (wal->empty()) {
    std::printf("wal: empty%s\n",
                truncated ? " (torn tail dropped — crash artifact)" : "");
  } else {
    auto generation = storage::DecodeWalGeneration(wal->front());
    if (!generation.ok()) {
      std::fprintf(stderr, "tcvs_fsck: wal: %s\n",
                   generation.status().ToString().c_str());
      return 1;
    }
    std::printf("wal: generation %llu, %zu valid records%s\n",
                static_cast<unsigned long long>(*generation), wal->size() - 1,
                truncated ? " (torn tail dropped — crash artifact)" : "");
  }

  auto server = storage::DurableServer::Open(dir, mtree::TreeParams{});
  if (!server.ok()) {
    std::fprintf(stderr, "tcvs_fsck: recovery failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  const auto& tree = (*server)->server()->tree();
  Status invariants = tree.CheckInvariants();
  if (!invariants.ok()) {
    std::fprintf(stderr, "tcvs_fsck: tree invariants violated: %s\n",
                 invariants.ToString().c_str());
    return 1;
  }

  std::printf("snapshot+wal recovery: OK\n");
  std::printf("files (incl. internal): %zu\n", tree.size());
  std::printf("tree height           : %zu\n", tree.height());
  std::printf("checkpoint generation : %llu\n",
              static_cast<unsigned long long>((*server)->generation()));
  std::printf("transactions (ctr)    : %llu\n",
              static_cast<unsigned long long>((*server)->server()->ctr()));
  std::printf("root digest           : %s\n",
              util::HexEncode(tree.root_digest()).c_str());
  std::printf("healthy\n");
  return 0;
}
