// fuzz-corpus-gen: writes the libFuzzer seed corpora under
// tests/fuzz_corpora/<target>/ — a handful of VALID wire messages per
// trust-boundary parser, produced by the real serializers so the fuzzers
// start from deep inside the accepted grammar instead of random bytes.
//
//   cmake --build build --target gen_fuzz_corpus
//   ./build/tools/gen_fuzz_corpus [repo_root]
//
// Rerun after a deliberate wire-format change; tests/fuzz_corpus_test.cc
// fails when the committed seeds stop parsing.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/wire.h"
#include "cvs/trusted.h"
#include "mtree/btree.h"
#include "mtree/vo.h"
#include "rpc/protocol.h"
#include "util/bytes.h"

namespace fs = std::filesystem;
using namespace tcvs;

namespace {

void WriteSeed(const fs::path& dir, const std::string& name,
               const Bytes& data) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.filename().c_str(), name.c_str(),
              data.size());
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root =
      (argc > 1 ? fs::path(argv[1]) : fs::current_path()) /
      "tests" / "fuzz_corpora";
  std::printf("writing seed corpora under %s\n", root.c_str());

  // A small populated tree gives the VO and reply seeds realistic shape.
  mtree::TreeParams params{.max_leaf_entries = 4, .max_internal_keys = 4};
  cvs::UntrustedServer server(params);
  for (int i = 0; i < 12; ++i) {
    const std::string path = "dir/file" + std::to_string(i) + ".txt";
    (void)server.Transact(
        1, {cvs::FileOp{cvs::FileOp::Kind::kCommit, path,
                        "content-" + std::to_string(i), 0}});
  }
  const mtree::MerkleBTree& tree = server.tree();

  // rpc_request: one seed per payload-bearing RPC shape.
  {
    const fs::path dir = root / "rpc_request";
    rpc::RpcRequest transact;
    transact.type = rpc::RpcType::kTransact;
    transact.user = 3;
    transact.request_id = 101;
    transact.trace_id = 0xabcdef01;
    transact.ops = {
        cvs::FileOp{cvs::FileOp::Kind::kCommit, "dir/file1.txt", "v2", 1},
        cvs::FileOp{cvs::FileOp::Kind::kCheckout, "dir/file2.txt", "", 0}};
    WriteSeed(dir, "transact.bin", transact.Serialize());

    rpc::RpcRequest list;
    list.type = rpc::RpcType::kList;
    list.user = 4;
    list.prefix = "dir/";
    list.request_id = 102;
    WriteSeed(dir, "list.bin", list.Serialize());

    rpc::RpcRequest checkpoint;
    checkpoint.type = rpc::RpcType::kLogCheckpoint;
    checkpoint.user = 5;
    checkpoint.old_size = 7;
    checkpoint.request_id = 103;
    WriteSeed(dir, "log_checkpoint.bin", checkpoint.Serialize());
  }

  // rpc_response: ok-with-payload, ok-empty, and an error status.
  {
    const fs::path dir = root / "rpc_response";
    rpc::RpcResponse ok;
    ok.status_code = 0;
    ok.payload = server.Transact(2, {cvs::FileOp{cvs::FileOp::Kind::kCheckout,
                                                 "dir/file3.txt", "", 0}})
                     ->untrusted()
                     .Serialize();
    WriteSeed(dir, "ok_transact.bin", ok.Serialize());

    rpc::RpcResponse empty;
    WriteSeed(dir, "ok_empty.bin", empty.Serialize());

    WriteSeed(dir, "not_found.bin",
              rpc::RpcResponse::FromStatus(Status::NotFound("no such file"))
                  .Serialize());
  }

  // point_vo: present key, absent key (non-membership proof).
  {
    const fs::path dir = root / "point_vo";
    WriteSeed(dir, "present.bin",
              tree.ProvePoint(util::ToBytes("dir/file1.txt")).Serialize());
    WriteSeed(dir, "absent.bin",
              tree.ProvePoint(util::ToBytes("dir/nope.txt")).Serialize());
  }

  // range_vo: populated range, empty range.
  {
    const fs::path dir = root / "range_vo";
    WriteSeed(dir, "populated.bin",
              tree.ProveRange(util::ToBytes("dir/"), util::ToBytes("dir0"))
                  .Serialize());
    WriteSeed(dir, "empty.bin",
              tree.ProveRange(util::ToBytes("zzz/"), util::ToBytes("zzz0"))
                  .Serialize());
  }

  // query_response: a found checkout with VO, and a miss.
  {
    const fs::path dir = root / "query_response";
    core::QueryResponse found;
    found.qid = 9;
    found.kind = sim::OpKind::kCheckout;
    found.found = true;
    found.answer = util::ToBytes("content-1");
    found.vo = tree.ProvePoint(util::ToBytes("dir/file1.txt")).Serialize();
    found.ctr = 12;
    found.creator = 1;
    found.epoch = 2;
    found.trace_id = 0x1234;
    WriteSeed(dir, "checkout_found.bin", found.Serialize());

    core::QueryResponse miss;
    miss.qid = 10;
    miss.kind = sim::OpKind::kCheckout;
    miss.found = false;
    miss.vo = tree.ProvePoint(util::ToBytes("dir/nope.txt")).Serialize();
    miss.ctr = 12;
    miss.creator = 1;
    WriteSeed(dir, "checkout_miss.bin", miss.Serialize());
  }

  std::printf("done\n");
  return 0;
}
