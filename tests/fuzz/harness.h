#pragma once

/// \file
/// Shared fuzz entry points for the trust-boundary parsers — the functions
/// every libFuzzer target (tests/fuzz/*_fuzz.cc, built under TCVS_FUZZ=ON
/// with Clang) and the always-on corpus-replay test (fuzz_corpus_test.cc,
/// any compiler) drive.
///
/// Each harness feeds arbitrary bytes to one wire Deserialize (a parser
/// that returns Result<util::Tainted<T>>). The properties checked:
///
///  * no crash / no sanitizer report on ANY input (the parser is the first
///    code hostile bytes reach — rejection must always be a clean Status);
///  * accepted inputs are parse-stable: serializing the quarantined value
///    back out yields bytes that parse again (a parser that accepts what
///    its serializer cannot express hides unreachable states from every
///    downstream verifier).
///
/// Harnesses only BORROW from quarantine (`untrusted()`); nothing here
/// endorses, so the fuzzers exercise exactly the attack surface that runs
/// before any verification.

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "core/wire.h"
#include "mtree/vo.h"
#include "rpc/protocol.h"
#include "util/bytes.h"

namespace tcvs {
namespace fuzz {

namespace internal {
inline Bytes ToBytes(const uint8_t* data, size_t size) {
  return Bytes(data, data + size);
}
// A violated harness property aborts so both libFuzzer and the corpus
// replay surface it as a hard failure, not a silent pass.
inline void Require(bool ok) {
  if (!ok) std::abort();
}
}  // namespace internal

inline int FuzzRpcRequest(const uint8_t* data, size_t size) {
  auto parsed = rpc::RpcRequest::Deserialize(internal::ToBytes(data, size));
  if (!parsed.ok()) return 0;
  auto again = rpc::RpcRequest::Deserialize(parsed->untrusted().Serialize());
  internal::Require(again.ok());
  return 0;
}

inline int FuzzRpcResponse(const uint8_t* data, size_t size) {
  auto parsed = rpc::RpcResponse::Deserialize(internal::ToBytes(data, size));
  if (!parsed.ok()) return 0;
  auto again = rpc::RpcResponse::Deserialize(parsed->untrusted().Serialize());
  internal::Require(again.ok());
  return 0;
}

inline int FuzzPointVo(const uint8_t* data, size_t size) {
  auto parsed = mtree::PointVO::Deserialize(internal::ToBytes(data, size));
  if (!parsed.ok()) return 0;
  // Digest computation over an arbitrary accepted structure must not crash;
  // whether it verifies is irrelevant here.
  (void)mtree::CheckedVO::Check(*parsed);
  auto again = mtree::PointVO::Deserialize(parsed->untrusted().Serialize());
  internal::Require(again.ok());
  return 0;
}

inline int FuzzRangeVo(const uint8_t* data, size_t size) {
  auto parsed = mtree::RangeVO::Deserialize(internal::ToBytes(data, size));
  if (!parsed.ok()) return 0;
  (void)mtree::CheckedVO::Check(*parsed);
  auto again = mtree::RangeVO::Deserialize(parsed->untrusted().Serialize());
  internal::Require(again.ok());
  return 0;
}

inline int FuzzQueryResponse(const uint8_t* data, size_t size) {
  auto parsed = core::QueryResponse::Deserialize(internal::ToBytes(data, size));
  if (!parsed.ok()) return 0;
  auto again =
      core::QueryResponse::Deserialize(parsed->untrusted().Serialize());
  internal::Require(again.ok());
  return 0;
}

}  // namespace fuzz
}  // namespace tcvs
