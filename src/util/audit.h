#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcvs {
namespace util {

/// \file
/// Security audit-event log: a typed, bounded, thread-safe record of every
/// security-significant observation a verifier makes — the SUNDR-style
/// forensic complement to the consistency protocols. Where metrics answer
/// "how many", the audit log answers "what exactly happened": each event
/// names the user, the operation counter, the epoch, the expected/actual
/// digests, and the trace id of the RPC exchange that revealed it, so an
/// auditor can pivot from "fork detected" to the causal trace.
///
/// Emission sites live in the verifying layers (core/user, cvs/trusted,
/// mtree/vo, crypto/signature, sim/kernel). Events are ONLY created through
/// the AuditEventKind enum — ad-hoc string-kinded events are banned by
/// tools/lint.py (rule `audit-event`).
///
/// Lock ranking: the AuditLog mutex is a LEAF, one rank with the per-metric
/// locks — Emit() touches the metrics registry (a leaf chain of its own)
/// strictly BEFORE taking `mu_`, and no audit code calls back into any
/// subsystem, so `subsystem lock → audit mu_` stays acyclic (see
/// ARCHITECTURE.md, "Tracing & audit").

/// \brief What an audit event attests. Wire-stable: values are part of the
/// serialized form; append, never renumber.
enum class AuditEventKind : uint8_t {
  /// A digital signature failed to verify (crypto layer or protocol step).
  kSignatureVerifyFailure = 1,
  /// A verification object's root digest (or internal chain) contradicted
  /// the trusted root the client holds.
  kVoMismatch = 2,
  /// The server presented an operation counter older than one already
  /// observed — a rollback or replayed state.
  kCounterRegression = 3,
  /// A sync-up round's global check passed; `gctr` and `lctr_sum` record
  /// the agreement (Protocol I: some gctr == Σ lctr).
  kSyncUpPass = 4,
  /// A sync-up round's global check failed: the server deviated somewhere
  /// since the last successful sync.
  kSyncUpFail = 5,
  /// Fork/partition detection: the pooled register XOR did not match any
  /// user's expected fingerprint — two users were shown diverging
  /// histories. Carries both digests.
  kForkDetected = 6,
  /// core/forensics localized the first faulty transition from pooled
  /// journals; `ctr` is the first bad counter.
  kForensicsLocalized = 7,
  /// Catch-all deviation report (sim kernel detection, audit-log rollback),
  /// with the verifier's reason in `detail`.
  kDeviationDetected = 8,
};

/// Stable lowercase snake_case name, e.g. "fork_detected".
const char* AuditEventKindName(AuditEventKind kind);

/// \brief One audit event. Fields that do not apply to a kind stay at their
/// zero/empty defaults; `seq` and `ts_us` are assigned by AuditLog::Emit,
/// and a zero `trace_id` is filled from the thread's active span context.
struct AuditEvent {
  AuditEvent() = default;
  explicit AuditEvent(AuditEventKind k) : kind(k) {}

  AuditEventKind kind = AuditEventKind::kDeviationDetected;
  /// Process-local monotone sequence number, assigned at Emit (never 0).
  uint64_t seq = 0;
  /// Emission time, microseconds on the process steady clock.
  uint64_t ts_us = 0;
  /// The observing/affected user id (0 when not user-specific).
  uint32_t user = 0;
  /// The operation counter the event is about (e.g. the regressed counter).
  uint64_t ctr = 0;
  /// Epoch at emission time (Protocol III; 0 when epochs are off).
  uint64_t epoch = 0;
  /// \name Sync-up bookkeeping: the global counter vs the sum of local
  /// counters (Protocol I's agreement check).
  /// @{
  uint64_t gctr = 0;
  uint64_t lctr_sum = 0;
  /// @}
  /// \name Divergence evidence: what the verifier expected vs what the
  /// server's answer implied (fingerprints, root digests).
  /// @{
  Bytes expected_digest;
  Bytes actual_digest;
  /// @}
  /// The causal trace active when the deviation was observed.
  uint64_t trace_id = 0;
  /// Human-readable specifics (scheme name, localization explanation, …).
  std::string detail;

  /// One JSON object (single line): {"seq":…,"kind":"…",…,"trace_id":"…"}.
  /// Digests and the trace id are hex strings.
  std::string JsonFormat() const;
};

/// \brief The process-wide bounded audit log. Thread-safe; keeps the newest
/// `capacity()` events (`total_emitted()` still counts everything, so a
/// reader can tell when the ring dropped history).
class AuditLog {
 public:
  static AuditLog& Instance();

  /// Default number of retained events (tunable via set_capacity).
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kMaxCapacity = 1u << 20;

  /// Records `event`, assigning `seq`/`ts_us` and defaulting a zero
  /// `trace_id` from CurrentSpanContext(). Also bumps the
  /// `audit.events_total` counter and the per-kind counter.
  void Emit(AuditEvent event) TCVS_EXCLUDES(mu_);

  /// All retained events, oldest first.
  std::vector<AuditEvent> Snapshot() const TCVS_EXCLUDES(mu_);

  /// Retained events with seq > min_seq, oldest first (incremental readers:
  /// tcvsd --log-json).
  std::vector<AuditEvent> SnapshotSince(uint64_t min_seq) const
      TCVS_EXCLUDES(mu_);

  /// Count of every event ever emitted (≥ retained size).
  uint64_t total_emitted() const TCVS_EXCLUDES(mu_);

  /// Clamped to [kMinCapacity, kMaxCapacity]; trims oldest if shrinking.
  void set_capacity(size_t capacity) TCVS_EXCLUDES(mu_);
  size_t capacity() const TCVS_EXCLUDES(mu_);

  /// Drops every retained event and restores defaults; the sequence
  /// counter keeps advancing (seq stays unique for the process lifetime).
  void ResetForTesting() TCVS_EXCLUDES(mu_);

 private:
  AuditLog() = default;

  mutable Mutex mu_;
  std::deque<AuditEvent> events_ TCVS_GUARDED_BY(mu_);
  size_t capacity_ TCVS_GUARDED_BY(mu_) = kDefaultCapacity;
  uint64_t next_seq_ TCVS_GUARDED_BY(mu_) = 1;
  uint64_t total_emitted_ TCVS_GUARDED_BY(mu_) = 0;
};

}  // namespace util
}  // namespace tcvs
