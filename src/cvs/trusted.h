#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/protocol_core.h"
#include "crypto/translog.h"
#include "cvs/repository.h"
#include "mtree/btree.h"
#include "mtree/vo.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/untrusted.h"

namespace tcvs {
namespace cvs {

/// Taint-verifier token: a full server reply survived VerifyingClient's
/// chained walk — every per-file VO verified against the running root, every
/// answer authenticated, every update locally replayed, and the applied flag
/// cross-checked. The strongest endorsement in the cvs layer.
struct ChainVerified {
  TCVS_TAINT_VERIFIER(ChainVerified);
};

/// \brief One file operation inside a (possibly multi-file) transaction —
/// the paper's `commit <file names>` takes a list.
struct FileOp {
  enum class Kind : uint8_t { kCheckout = 0, kCommit = 1, kRemove = 2 };
  Kind kind = Kind::kCheckout;
  std::string path;
  std::string content;        // kCommit only.
  uint64_t base_revision = 0;  // kCommit only; 0 = create.
};

/// \brief Envelope every server reply travels in: per-file verification
/// objects chained over intermediate states, plus the Protocol II counter
/// and creator fields.
struct ServerReply {
  /// Conditional transaction: whether the server applied it (all-or-nothing
  /// for multi-file commits).
  bool applied = false;
  struct PerFile {
    bool found = false;
    /// Serialized mtree::PointVO proving the state *before this sub-op*
    /// (i.e. after the previous sub-ops of the same transaction).
    Bytes vo;
  };
  std::vector<PerFile> files;
  /// Operation counter before this transaction.
  uint64_t ctr = 0;
  /// User whose transaction created the pre-state.
  uint32_t creator = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<ServerReply>> Deserialize(const Bytes& data);
};

/// \brief A signed-tree-head-style checkpoint of the server's transparency
/// log over its root-digest history, with a consistency proof from the
/// client's previous checkpoint (RFC 6962 semantics).
///
/// The log gives clients an *append-only* guarantee on history: a server
/// that rewrites any already-logged (ctr, root) pair can never produce a
/// valid consistency proof again. Together with the Protocol II registers
/// (which catch forks across users at sync-up) this closes the rollback
/// case a single offline client could not otherwise prove.
struct LogCheckpointReply {
  uint64_t size = 0;
  crypto::Digest root;
  std::vector<crypto::Digest> consistency;

  Bytes Serialize() const;
  static Result<util::Tainted<LogCheckpointReply>> Deserialize(
      const Bytes& data);
};

/// \brief Canonical transparency-log entry for transaction `ctr` producing
/// database root `root`.
Bytes LogEntry(uint64_t ctr, const crypto::Digest& root);

/// \brief Reply to a directory-listing transaction: the serialized
/// mtree::RangeVO over the prefix range, plus the protocol envelope.
struct ListReply {
  Bytes range_vo;
  uint64_t ctr = 0;
  uint32_t creator = 0;

  Bytes Serialize() const;
  static Result<util::Tainted<ListReply>> Deserialize(const Bytes& data);
};

/// \brief Transport-independent server interface: implemented in-process by
/// UntrustedServer and over TCP by rpc::RemoteServer. Every method is one
/// atomic transaction (one counter increment).
///
/// Every reply is quarantined: whether it was built in-process or parsed off
/// a socket, it is the *untrusted vendor's* output, and VerifyingClient's
/// chain walk is the only thing that may unwrap it.
class ServerApi {
 public:
  virtual ~ServerApi() = default;

  /// Executes `ops` atomically as one transaction by `user`. For
  /// transactions containing commits, the server applies all of them only
  /// if every commit's base revision matches (CVS semantics per file);
  /// otherwise it applies none and `applied` is false.
  virtual Result<util::Tainted<ServerReply>> Transact(
      uint32_t user, const std::vector<FileOp>& ops) = 0;

  /// Read-only directory listing transaction: a range proof over
  /// [prefix, prefix ∥ 0xFF…] plus the Protocol II envelope. The proof is
  /// COMPLETE — a vendor hiding files is caught by the range verification.
  virtual Result<util::Tainted<ListReply>> List(uint32_t user,
                                                const std::string& prefix) = 0;

  /// Current transparency-log checkpoint with a consistency proof from the
  /// caller's previous checkpoint size (not a transaction; the counter does
  /// not advance).
  virtual Result<util::Tainted<LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) = 0;

  /// Tree geometry, needed by clients for VO replay.
  virtual mtree::TreeParams tree_params() const = 0;
};

/// \brief Makes a single-threaded ServerApi (UntrustedServer, a test double)
/// safe for callers on many threads, such as rpc::Serve's workers: every
/// call runs under one lock, `cvs.server.serialized`. DurableServer orders
/// concurrent calls itself and is served without it.
class SerializedServer : public ServerApi {
 public:
  explicit SerializedServer(ServerApi* inner) : inner_(inner) {}

  Result<util::Tainted<ServerReply>> Transact(
      uint32_t user, const std::vector<FileOp>& ops) override;
  Result<util::Tainted<ListReply>> List(uint32_t user,
                                        const std::string& prefix) override;
  Result<util::Tainted<LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override;
  mtree::TreeParams tree_params() const override;

 private:
  mutable util::Mutex mu_{"cvs.server.serialized"};
  ServerApi* const inner_ TCVS_PT_GUARDED_BY(mu_);
};

/// \brief What the hosting vendor runs: a CVS repository over the Merkle
/// B⁺-tree whose every reply carries chained verification objects, an
/// operation counter, and the creator of the current state — the server
/// side of Protocol II as a direct API, over one core::Branch, plus the
/// transparency log of its roots.
///
/// The server is untrusted: nothing it returns is believed until it passes
/// VerifyingClient's checks; the cross-client sync-up catches what
/// per-reply verification cannot (forks, replays).
class UntrustedServer : public ServerApi {
 public:
  /// The transaction body over any branch, as an adversary serves it:
  /// decide (all-or-nothing on base revisions), execute serially with each
  /// sub-op's pre-state proof, then advance (ctr, creator). `serving.tamper`
  /// stores altered content for every commit; `serving.drop` acknowledges
  /// commits without applying them. An honest server passes neither.
  static Result<util::Tainted<ServerReply>> Execute(
      const core::Serving& serving, uint32_t user,
      const std::vector<FileOp>& ops);

  /// The listing body over any branch: a range proof, then advance.
  static Result<util::Tainted<ListReply>> ExecuteList(
      core::Branch* branch, uint32_t user, const std::string& prefix);

  /// Whether `ops` would apply on `tree` (every commit's base revision
  /// matches the revision the file has when that sub-op runs).
  static bool Applies(const mtree::MerkleBTree& tree,
                      const std::vector<FileOp>& ops);

  explicit UntrustedServer(mtree::TreeParams params = mtree::TreeParams{});

  /// Restore constructor (server restart from a snapshot): adopt an existing
  /// tree, the protocol counters, and the transparency-log leaves.
  UntrustedServer(mtree::MerkleBTree tree, uint64_t ctr, uint32_t creator,
                  const std::vector<crypto::Digest>& log_leaves = {});

  Result<util::Tainted<ServerReply>> Transact(
      uint32_t user, const std::vector<FileOp>& ops) override;
  Result<util::Tainted<ListReply>> List(uint32_t user,
                                        const std::string& prefix) override;
  Result<util::Tainted<LogCheckpointReply>> LogCheckpoint(
      uint64_t old_size) override;
  mtree::TreeParams tree_params() const override {
    return branch_.tree.params();
  }

  uint64_t ctr() const { return branch_.ctr; }
  uint32_t creator() const { return branch_.creator; }
  const mtree::MerkleBTree& tree() const { return branch_.tree; }

  /// The transparency log (for persistence).
  const crypto::TransparencyLog& log() const { return log_; }

  /// Test/attack hook: mutate the underlying tree out-of-band (a tampering
  /// vendor). Honest deployments never call this.
  mtree::MerkleBTree* mutable_tree_for_testing() { return &branch_.tree; }

  /// Test/attack hook: rewrite a transparency-log leaf (a history-rewriting
  /// vendor).
  void rewrite_log_leaf_for_testing(uint64_t index, const Bytes& entry) {
    std::vector<crypto::Digest> leaves;
    for (uint64_t i = 0; i < log_.size(); ++i) {
      leaves.push_back(log_.leaf_hash(i));
    }
    leaves[index] = crypto::TransparencyLog::LeafHash(entry);
    log_ = crypto::TransparencyLog::FromLeafHashes(leaves);
  }

 private:
  void AppendLogEntry();

  core::Branch branch_;
  crypto::TransparencyLog log_;
};

/// \brief Portable snapshot of a client's O(1) verification state, so a CLI
/// can persist it between invocations.
struct ClientState {
  uint32_t user_id = 0;
  Bytes sigma;
  Bytes last;
  uint64_t gctr = 0;
  uint64_t lctr = 0;
  /// Transparency-log checkpoint (0/empty before the first audit).
  uint64_t log_size = 0;
  Bytes log_root;

  Bytes Serialize() const;
  // taint-exempt: local-origin — parses the client's own persisted state
  // file, which never crosses the server trust boundary.
  static Result<ClientState> Deserialize(const Bytes& data);
};

/// \brief A user's verifying CVS client over any ServerApi transport: full
/// Protocol II verification per reply (VO chain consistency, answer
/// authentication, local replay of updates, counter monotonicity, σ/last
/// register folding). Client state is O(1) (§2.2.5).
class VerifyingClient {
 public:
  VerifyingClient(uint32_t user_id, ServerApi* server);

  /// Restores a client from persisted state (CLI usage).
  VerifyingClient(ClientState state, ServerApi* server);

  uint32_t user_id() const { return user_id_; }

  /// Verified checkout. \return NotFound for authenticated absence.
  Result<FileRecord> Checkout(const std::string& path);

  /// Verified conditional commit of a single file.
  /// \return the new revision; FailedPrecondition/AlreadyExists on an
  /// authenticated conflict.
  Result<uint64_t> Commit(const std::string& path, std::string content,
                          uint64_t base_revision);

  /// Verified atomic multi-file commit (the paper's `commit <file names>`).
  /// All files commit or none does; per-file new revisions are returned.
  /// \return FailedPrecondition when any base revision is stale.
  Result<std::vector<uint64_t>> CommitMany(
      const std::vector<FileOp>& commits);

  /// Verified remove. \return NotFound if (provably) absent.
  Status Remove(const std::string& path);

  /// Verified multi-file checkout in one transaction; per-file records
  /// (nullopt = authenticated absence).
  Result<std::vector<std::optional<FileRecord>>> CheckoutMany(
      const std::vector<std::string>& paths);

  /// Verified, provably COMPLETE directory listing: every live file whose
  /// path starts with `prefix`, with its revision. A vendor hiding entries
  /// fails the range proof.
  Result<std::vector<std::pair<std::string, uint64_t>>> ListDir(
      const std::string& prefix);

  /// \name Protocol II registers.
  /// @{
  const Bytes& sigma() const { return registers_.sigma; }
  const Bytes& last() const { return registers_.last; }
  uint64_t gctr() const { return registers_.gctr; }
  uint64_t lctr() const { return registers_.lctr; }
  /// @}

  /// Snapshot for persistence.
  ClientState state() const;

  /// The §4.3 sync-up over live clients.
  static Status SyncUp(const std::vector<VerifyingClient*>& clients);

  /// The same check over persisted states (CLI: users mail each other their
  /// states and anyone runs the check).
  static Status SyncCheck(const std::vector<ClientState>& states);

  /// Fetches the server's transparency-log checkpoint, verifies it extends
  /// the locally remembered checkpoint (append-only history), and advances
  /// the local checkpoint. \return DeviationDetected when the server has
  /// rewritten or rolled back logged history.
  Status AuditLog();

  uint64_t log_checkpoint_size() const { return log_size_; }

 private:
  /// Runs the full chain walk over a quarantined reply; on success the
  /// reply is endorsed (ChainVerified) and folded into the registers.
  Result<ServerReply> Execute(const std::vector<FileOp>& ops,
                              std::vector<std::optional<FileRecord>>* pre_records);

  uint32_t user_id_;
  ServerApi* server_;
  core::Registers registers_;
  uint64_t log_size_ = 0;
  crypto::Digest log_root_;
  mtree::TreeParams params_;
};

}  // namespace cvs
}  // namespace tcvs
