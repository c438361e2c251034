#pragma once

#include <vector>

#include "cvs/trusted.h"
#include "util/result.h"
#include "util/serde.h"
#include "util/untrusted.h"

namespace tcvs {
namespace rpc {

/// Taint-verifier token: an RPC envelope passed the structural checks in
/// CheckRequestEnvelope / CheckResponseEnvelope. Deliberately narrow — it
/// attests a well-formed frame, nothing cryptographic. A response PAYLOAD
/// (serialized ServerReply etc.) stays quarantined through its own
/// Deserialize and is endorsed only by the cvs verification chain.
struct EnvelopeChecked {
  TCVS_TAINT_VERIFIER(EnvelopeChecked);
};

/// RPC message kinds between `tcvs` clients and a `tcvsd` server.
enum class RpcType : uint8_t {
  /// Execute a transaction (cvs::ServerApi::Transact).
  kTransact = 1,
  /// Fetch server configuration (tree parameters).
  kGetParams = 2,
  /// Ask the serving loop to exit (operator tooling / tests).
  kShutdown = 3,
  /// Authenticated directory listing (cvs::ServerApi::List).
  kList = 4,
  /// Transparency-log checkpoint + consistency proof
  /// (cvs::ServerApi::LogCheckpoint).
  kLogCheckpoint = 5,
};

/// \brief Request wire version: the first byte of every request frame.
/// Deserialize accepts exactly this value and rejects any other with
/// InvalidArgument. The value sits above every type tag the earlier
/// layouts began with (1..9, or the 0xFF escape), so an old-layout frame
/// fails the version check instead of misparsing.
inline constexpr uint8_t kRpcWireVersion = 16;

/// \brief One request frame.
struct RpcRequest {
  RpcType type = RpcType::kTransact;
  uint32_t user = 0;
  std::vector<cvs::FileOp> ops;
  std::string prefix;     // kList only.
  uint64_t old_size = 0;  // kLogCheckpoint only: the caller's checkpoint.
  /// Nonzero id shared by every retry of one logical call. The serve loop
  /// caches the reply per id, so a replayed request whose original reply was
  /// lost mid-flight returns the SAME reply instead of re-executing — the
  /// counter-bearing transaction stays exactly-once within a server
  /// incarnation, and the client's register chain has no gap.
  uint64_t request_id = 0;
  /// \name Causal-trace context (Dapper-style). The client copies its
  /// active span here; the serve loop installs it so server handler spans
  /// join the caller's trace.
  /// @{
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// @}

  Bytes Serialize() const;
  static Result<util::Tainted<RpcRequest>> Deserialize(const Bytes& data);
};

/// \brief One response frame: a Status (code + message) plus, on success,
/// the type-specific payload (a serialized ServerReply for kTransact, the
/// tree parameters for kGetParams).
struct RpcResponse {
  uint32_t status_code = 0;  // StatusCode as integer; 0 = OK.
  std::string status_message;
  Bytes payload;

  static RpcResponse FromStatus(const Status& status);
  Status ToStatus() const;

  Bytes Serialize() const;
  static Result<util::Tainted<RpcResponse>> Deserialize(const Bytes& data);
};

/// \brief Structural endorsement of a parsed response frame (client side):
/// the status code must map onto a known StatusCode. See EnvelopeChecked for
/// what this does — and does not — attest.
Result<RpcResponse> CheckResponseEnvelope(util::Tainted<RpcResponse> resp);

/// \brief Structural endorsement of a parsed request frame (serve side): the
/// type tag and op count were already bounds-checked by Deserialize, and the
/// server executes whatever a client asks — clients, not the server, carry
/// the verification burden.
Result<RpcRequest> CheckRequestEnvelope(util::Tainted<RpcRequest> req);

/// FileOp wire helpers (shared by request serialization and tests). These
/// parse *sub-fields inside an already quarantined frame*, so they stay on
/// plain values; the enclosing Deserialize applies the taint wrapper.
void SerializeFileOp(const cvs::FileOp& op, util::Writer* w);
Result<cvs::FileOp> DeserializeFileOp(util::Reader* r);

}  // namespace rpc
}  // namespace tcvs
