#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "mtree/btree.h"
#include "mtree/vo.h"
#include "util/audit.h"
#include "util/result.h"
#include "util/untrusted.h"

namespace tcvs {
namespace core {

/// \file
/// Protocol II (§4.3), transport-free. The client half: the fingerprints,
/// the VO chain, the registers, the counter check, the fold and the sync-up
/// telescope; the simulator's ProtocolUser and the deployed
/// cvs::VerifyingClient both call it. The server half: the Branch every
/// server executes on (cvs::UntrustedServer, the simulator's ProtocolServer,
/// and each line of history the Adversary keeps).

/// Reserved "creator" id of the initial database state D₀ (no user made it).
inline constexpr uint32_t kInitialCreator = 0;

/// \brief One line of server state: the database, the operation counter, the
/// user whose transaction created the current state, and (Protocol I) the
/// signature over it. The server executes serially, returns the pre-state
/// VO, then advances (ctr, creator).
struct Branch {
  mtree::MerkleBTree tree;
  uint64_t ctr = 0;
  uint32_t creator = kInitialCreator;
  Bytes sig;

  explicit Branch(const mtree::TreeParams& params) : tree(params) {}
  Branch(mtree::MerkleBTree tree_in, uint64_t ctr_in, uint32_t creator_in,
         Bytes sig_in = {})
      : tree(std::move(tree_in)),
        ctr(ctr_in),
        creator(creator_in),
        sig(std::move(sig_in)) {}

  /// Deep copy: the adversary's fork, replay and rollback lines.
  Branch Clone() const { return Branch(tree.Clone(), ctr, creator, sig); }

  /// One transaction by `user` ran on this branch.
  void Advance(uint32_t user) {
    ctr += 1;
    creator = user;
  }
};

/// \brief How one operation is served: on which branch, and whether the
/// commit is altered. The honest server serves every operation on its one
/// branch, unaltered; core::Adversary picks the branch and the lies.
struct Serving {
  /// The branch the operation executes on (main, fork, or a replayed
  /// pre-state).
  Branch* branch = nullptr;
  /// Apply the commit with altered content (kEquivocate).
  bool tamper = false;
  /// Acknowledge the commit without applying it (kDrop).
  bool drop = false;
};

/// \brief XOR of two equal-length byte strings (the σ-register accumulation
/// of Protocols II/III). Mismatched lengths are a programming error.
Bytes XorBytes(const Bytes& a, const Bytes& b);

/// \brief State fingerprint h(M(D) ‖ ctr ‖ creator) of Protocol II: the
/// database root digest, the operation counter, and the id of the user whose
/// operation produced this state. Tagging states with their creating user is
/// what forces in-degree ≤ 1 in the state-transition graph (Lemma 4.1 P2)
/// and defeats the Figure-3 replay.
crypto::Digest StateFingerprint(const crypto::Digest& root, uint64_t ctr,
                                uint32_t creator);

/// \brief Untagged fingerprint h(M(D) ‖ ctr): the "first attempt" the paper
/// shows insecure via the Figure-3 scenario. Kept as the ablation arm of
/// experiment F3.
crypto::Digest StateFingerprintUntagged(const crypto::Digest& root,
                                        uint64_t ctr);

/// \brief Fingerprint of the initial state (D₀, ctr=0), common knowledge to
/// all users.
crypto::Digest InitialFingerprint(bool tagged);

/// \brief Preimage the last writer signs in Protocol I: h(M(D) ‖ ctr).
Bytes SignedStatePreimage(const crypto::Digest& root, uint64_t ctr);

/// \brief One sub-op of a transaction as the client replays it on its VO.
struct ChainOp {
  enum class Kind : uint8_t { kRead, kUpsert, kDelete };
  Kind kind = Kind::kRead;
  Bytes key;
  Bytes value;        // kUpsert only.
  bool apply = true;  // kUpsert/kDelete: replay the mutation (else read only).
};

/// \brief One verified transition (pre_root, ctr, creator) → (post_root,
/// ctr + 1): the only thing Registers::Fold accepts. Its roots come from
/// checked VOs — a VoChain whose every linked VO was stepped, or a read's
/// CheckedVO — so a root no VO authenticated cannot reach the fold (Lemma
/// 4.1 rests on exactly that). ctr and creator are the server's claim, which
/// Registers::CheckCounter checks and the fingerprints bind.
class Transition {
 public:
  const crypto::Digest& pre_root() const { return pre_root_; }
  const crypto::Digest& post_root() const { return post_root_; }
  uint64_t ctr() const { return ctr_; }
  uint32_t creator() const { return creator_; }

 private:
  friend class VoChain;
  friend Transition ReadTransition(const mtree::CheckedVO& checked,
                                   uint64_t ctr, uint32_t creator);

  Transition(crypto::Digest pre_root, crypto::Digest post_root, uint64_t ctr,
             uint32_t creator)
      : pre_root_(std::move(pre_root)),
        post_root_(std::move(post_root)),
        ctr_(ctr),
        creator_(creator) {}

  crypto::Digest pre_root_;
  crypto::Digest post_root_;
  uint64_t ctr_;
  uint32_t creator_;
};

/// \brief The transition of a read-only transaction (a listing) over
/// `checked`: the state stays at checked.root(), the counter advances.
Transition ReadTransition(const mtree::CheckedVO& checked, uint64_t ctr,
                          uint32_t creator);

/// \brief The client's single pass over a transaction's point VOs: sub-op
/// i's VO shows the state the earlier sub-ops produced. Link hashes each VO
/// once; Step routes and replays over the checked view; Finish hands the
/// transition to the fold. The simulator has one sub-op and runs its other
/// checks between Link and Step.
class VoChain {
 public:
  /// `ctr` and `creator` are the server's claimed pre-state label; `user`,
  /// `ctr` and `gctr` also label the chain-break audit event.
  VoChain(const mtree::TreeParams& params, uint32_t user, uint64_t ctr,
          uint32_t creator, uint64_t gctr);

  /// Checks the next sub-op's VO — its one hashing pass. The first VO fixes
  /// the pre-root; every later one must be rooted at the running root, or a
  /// kVoMismatch naming both roots is emitted and DeviationDetected
  /// returned. `vo` must outlive the following Step.
  Status Link(const util::Tainted<mtree::PointVO>& vo);

  /// Routes `op` over the VO linked last. When op.apply, replays the
  /// mutation and advances the running root; deleting an absent key is an
  /// authenticated no-op. \return the key's authenticated pre-state value.
  Result<std::optional<Bytes>> Step(const ChainOp& op);

  const crypto::Digest& pre_root() const { return pre_root_; }  // Before all.
  const crypto::Digest& root() const { return root_; }  // After those stepped.

  /// The transaction's transition (pre_root, ctr, creator) → root. At least
  /// one VO must be linked and every linked VO stepped. Moves the roots out.
  Transition Finish() &&;

 private:
  mtree::TreeParams params_;
  uint32_t user_;
  uint64_t ctr_;
  uint32_t creator_;
  uint64_t gctr_;
  size_t linked_ = 0;
  std::optional<mtree::CheckedVO> current_;
  crypto::Digest pre_root_;
  crypto::Digest root_;
};

/// \brief One user's O(1) protocol state (§2.2.5).
struct Registers {
  /// σ = 0 and last = f₀; tagged = false is the untagged Protocol-II
  /// ablation (fingerprints h(M(D) ‖ ctr)).
  explicit Registers(bool tagged = true);

  Bytes sigma;        // ⊕ of every fingerprint this user's transitions folded.
  Bytes last;         // Fingerprint of the state its latest transaction made.
  uint64_t gctr = 0;  // The lowest counter the server may still present.
  uint64_t lctr = 0;  // Transactions this user folded.
  bool tagged = true;

  /// h(M(D) ‖ ctr ‖ creator), or h(M(D) ‖ ctr) when untagged.
  crypto::Digest Fingerprint(const crypto::Digest& root, uint64_t ctr,
                             uint32_t creator) const;

  /// Protocol II step 4: the server may never show `user` a counter older
  /// than one it has already seen. A regressed counter is fork evidence in
  /// itself, so a failure emits kCounterRegression and a kForkDetected
  /// naming `last` against the fingerprint of the presented (pre_root, ctr,
  /// creator), and returns DeviationDetected.
  Status CheckCounter(uint32_t user, uint64_t epoch, uint64_t ctr,
                      const crypto::Digest& pre_root, uint32_t creator) const;

  /// Folds one verified transition (pre_root, ctr, creator) → (post_root,
  /// ctr + 1, user) into σ and last and advances the counters.
  /// \return the (pre, post) fingerprints of the transition.
  std::pair<crypto::Digest, crypto::Digest> Fold(const Transition& transition,
                                                 uint32_t user);
};

/// \brief ⊕ of equally sized registers (the zero digest for none).
Bytes XorSum(const std::vector<Bytes>& sigmas);

/// \brief The sync-up condition of Lemma 4.1: some start ⊕ some last equals
/// `sigma_xor`, the ⊕ of the participants' σ — over one serial history the
/// folded fingerprints telescope to f_start ⊕ f_end. `starts` is {f₀}, or
/// the previous epoch's lasts for the Protocol III audit.
bool TelescopeCloses(const std::vector<Bytes>& starts,
                     const std::vector<Bytes>& lasts, const Bytes& sigma_xor);

/// \brief Records a sync-up's outcome: kSyncUpPass, or kSyncUpFail plus the
/// kForkDetected naming `expected` (f₀ ⊕ the last this side expected to
/// explain the pool) against `actual` (⊕σ). `label` carries the user,
/// counters and epoch of every event; `sync_name` names the sync-up.
void AuditSyncUp(bool closed, const util::AuditEvent& label, Bytes expected,
                 Bytes actual, const std::string& sync_name);

}  // namespace core
}  // namespace tcvs
