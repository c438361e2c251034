#pragma once

#include <optional>
#include <vector>

#include "sim/trace.h"
#include "sim/types.h"
#include "util/result.h"
#include "util/untrusted.h"

namespace tcvs {
namespace core {

/// Taint-verifier token for the *server/simulator side* of the wire: a
/// client-originated frame was structurally parsed and is consumed by a
/// party that is itself outside the TCB (the untrusted server executes
/// whatever it is asked; its misbehaviour is what the clients detect).
/// Client-side consumption of server-originated frames must NOT use this —
/// it endorses no cryptographic property.
struct FrameChecked {
  TCVS_TAINT_VERIFIER(FrameChecked);
};

/// Structural endorsement for the server/simulator side (see FrameChecked).
template <typename T>
T AcceptClientFrame(util::Tainted<T> frame) {
  return TCVS_ENDORSE(std::move(frame), FrameChecked{});
}

/// Message type tags used on the simulated network.
enum MsgType : uint32_t {
  kMsgQueryRequest = 1,
  kMsgQueryResponse = 2,
  /// Protocol I step 6: the user's signature over the new state, returned to
  /// the server (the blocking extra message).
  kMsgRootSigUpload = 3,
  /// Broadcast channel: sync-up trigger (Protocols I/II).
  kMsgSyncAnnounce = 10,
  /// Broadcast channel: a user's sync report (lctr/gctr or σ/last).
  kMsgSyncReport = 11,
  /// Aggregation-tree sync (future-work extension): child → parent partial
  /// aggregate, root → all total, matching user → all success.
  kMsgAggReport = 12,
  kMsgAggTotal = 13,
  kMsgAggSuccess = 14,
  /// Protocol III: auditor asks the server for stored epoch states.
  kMsgEpochStatesRequest = 20,
  kMsgEpochStatesReply = 21,
};

/// \brief One verified transition as remembered in a user's bounded journal
/// (fault-localization extension): fingerprints of the pre/post states, the
/// counter, the creator the server claimed for the pre-state, and the user
/// who performed the transition.
struct TransitionRecord {
  Bytes pre;
  Bytes post;
  uint64_t ctr = 0;           // Pre-state counter; the transition is c → c+1.
  uint32_t claimed_creator = 0;
  uint32_t user = 0;

  bool operator==(const TransitionRecord&) const = default;
};

/// \brief Protocol III: one user's signed per-epoch local state (σ, last),
/// deposited on the untrusted server during the following epoch.
struct EpochStateBlob {
  uint32_t user = 0;
  uint64_t epoch = 0;
  Bytes sigma;
  Bytes last;
  Bytes signature;

  /// Canonical bytes the user signs (everything but the signature).
  Bytes Preimage() const;

  Bytes Serialize() const;
  static Result<util::Tainted<EpochStateBlob>> Deserialize(const Bytes& data);

  bool operator==(const EpochStateBlob&) const = default;
};

/// \brief Query wire version. v2 prefixes both query messages with this
/// byte and appends the causal trace id; v1 frames (no version byte) are no
/// longer accepted — the simulated network has no cross-version peers.
inline constexpr uint8_t kQueryWireVersion = 2;

/// \brief User → server: one CVS operation (checkout / commit / delete) on a
/// data item. Protocol III queries may piggyback the previous epoch's signed
/// state blob (paper §4.4 step 2).
struct QueryRequest {
  uint64_t qid = 0;
  sim::OpKind kind = sim::OpKind::kCheckout;
  Bytes key;
  Bytes value;
  std::optional<EpochStateBlob> epoch_upload;
  /// Causal trace of the round that issued the query (0 = untraced).
  uint64_t trace_id = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<QueryRequest>> Deserialize(const Bytes& data);
};

/// \brief Server → user: the paper's Φ = (Q(D), v(Q,D), ctr, j, sig), plus
/// the epoch number for Protocol III.
struct QueryResponse {
  uint64_t qid = 0;
  sim::OpKind kind = sim::OpKind::kCheckout;
  /// Checkout answer (meaningful only for checkouts).
  bool found = false;
  Bytes answer;
  /// Serialized mtree::PointVO for the pre-state path (empty under kPlain).
  Bytes vo;
  uint64_t ctr = 0;
  /// j — the user whose operation created the current state.
  uint32_t creator = 0;
  /// Protocol I: sig_j(h(M(D) ‖ ctr)). Empty in other protocols.
  Bytes sig;
  /// Protocol III: the server's epoch number.
  uint64_t epoch = 0;
  /// Echo of the query's trace id, so the user's verification of this
  /// response (and any deviation it uncovers) joins the originating trace.
  uint64_t trace_id = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<QueryResponse>> Deserialize(const Bytes& data);
};

/// \brief Protocol I: user → server, sign_i(h(M(D′) ‖ ctr+1)).
struct RootSigUpload {
  uint32_t user = 0;
  uint64_t ctr_after = 0;
  Bytes sig;

  Bytes Serialize() const;
  static Result<util::Tainted<RootSigUpload>> Deserialize(const Bytes& data);
};

/// \brief Broadcast: "sync-up" announcement (the announcing user's report is
/// broadcast separately like everyone else's).
struct SyncAnnounce {
  uint64_t sync_id = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<SyncAnnounce>> Deserialize(const Bytes& data);
};

/// \brief Broadcast: one user's synchronization report. Protocol I consumes
/// (lctr, gctr); Protocol II consumes (σ, last). Both are included so the
/// scenario layer can run either check.
struct SyncReport {
  uint64_t sync_id = 0;
  uint32_t user = 0;
  uint64_t lctr = 0;
  uint64_t gctr = 0;
  Bytes sigma;
  Bytes last;
  /// Fault-localization journal (bounded; empty when disabled).
  std::vector<TransitionRecord> journal;

  Bytes Serialize() const;
  static Result<util::Tainted<SyncReport>> Deserialize(const Bytes& data);
};

/// \brief Aggregation-tree sync: the partial aggregate of the subtree rooted
/// at `user` (XOR of σ registers; sum of lctr counters).
struct AggReport {
  uint64_t sync_id = 0;
  uint32_t user = 0;
  Bytes sigma_xor;
  uint64_t lctr_sum = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<AggReport>> Deserialize(const Bytes& data);
};

/// \brief Aggregation-tree sync: the root's total, sent to every user.
struct AggTotal {
  uint64_t sync_id = 0;
  Bytes sigma_total;
  uint64_t lctr_total = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<AggTotal>> Deserialize(const Bytes& data);
};

/// \brief Aggregation-tree sync: "my local state matches the total" — at
/// least one user must say so or the server deviated.
struct AggSuccess {
  uint64_t sync_id = 0;
  uint32_t user = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<AggSuccess>> Deserialize(const Bytes& data);
};

/// \brief Protocol III: auditor → server, "give me the stored states of
/// epoch e and the lasts of epoch e−1".
struct EpochStatesRequest {
  uint64_t epoch = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<EpochStatesRequest>> Deserialize(const Bytes& data);
};

/// \brief Protocol III: server → auditor reply.
struct EpochStatesReply {
  uint64_t epoch = 0;
  std::vector<EpochStateBlob> states;       // Epoch e blobs.
  std::vector<EpochStateBlob> prev_states;  // Epoch e−1 blobs (for S_init).

  Bytes Serialize() const;
  static Result<util::Tainted<EpochStatesReply>> Deserialize(const Bytes& data);
};

}  // namespace core
}  // namespace tcvs
