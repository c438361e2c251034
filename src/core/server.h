#pragma once

#include <deque>
#include <map>

#include "core/adversary.h"
#include "core/config.h"
#include "core/wire.h"
#include "sim/kernel.h"

namespace tcvs {
namespace core {

/// \brief The CVS server agent: a message adapter between the simulation
/// kernel and the core::Adversary that runs the configured schedule (with an
/// empty schedule, the honest server). It executes queries serially in
/// arrival order and answers with pre-state verification objects, and keeps
/// what only the simulator has: delayed responses, the stall, Protocol I's
/// blocking signature round-trip, and Protocol III's epoch-state store with
/// its suppression attacks.
///
/// The server is *untrusted*: it holds no user keys and verifies nothing;
/// everything it sends is data the users must check.
class ProtocolServer : public sim::Agent {
 public:
  /// \param initial_sig Protocol I / token baseline: the elected user's
  /// signature over h(M(D₀) ‖ 0), stored on the server before round 1.
  ProtocolServer(ScenarioConfig config, Bytes initial_sig,
                 uint32_t initial_signer);

  void OnRound(sim::RoundContext* ctx) override;

  /// Operations actually executed (all branches combined).
  uint64_t ops_processed() const { return ops_processed_; }

  /// First round at which the attack actually altered processing
  /// (0 = never engaged). Ground truth for detection-delay measurements.
  sim::Round attack_engaged_round() const { return adversary_.engaged_at(); }

  /// Number of operations (across all users) processed at or after the
  /// round the attack engaged. Detection delay in *operations* is measured
  /// against this.
  uint64_t ops_after_attack() const { return ops_after_attack_; }

 private:
  bool UsesBlockingSig() const {
    return config_.protocol == ProtocolKind::kProtocolI ||
           config_.protocol == ProtocolKind::kTokenBaseline;
  }

  void HandleQuery(sim::RoundContext* ctx, const sim::Message& msg);
  void HandleSigUpload(const sim::Message& msg);
  void HandleEpochRequest(sim::RoundContext* ctx, const sim::Message& msg);

  ScenarioConfig config_;
  Adversary adversary_;
  // Protocol I blocking: queries queued while awaiting the signature.
  std::deque<sim::Message> pending_;
  bool awaiting_sig_ = false;
  uint64_t ops_processed_ = 0;
  uint64_t ops_after_attack_ = 0;
  struct DelayedSend {
    sim::Round due = 0;
    sim::AgentId to = 0;
    Bytes payload;
  };
  std::deque<DelayedSend> delayed_;

  // Protocol III: stored signed per-epoch user states.
  std::map<uint64_t, std::map<uint32_t, EpochStateBlob>> epoch_states_;
};

}  // namespace core
}  // namespace tcvs
