#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tcvs {
namespace util {

/// \file
/// The always-on profiling plane: a signal-based sampling CPU profiler plus
/// the process-wide lock-contention profile (see ARCHITECTURE.md,
/// "Profiling plane").
///
/// **CPU profiler.** SIGPROF driven by ITIMER_PROF at a fixed frequency, so
/// samples land proportionally to CPU time actually burned (an idle process
/// yields almost no samples — that is the correct reading, not a bug). The
/// handler writes raw PCs from backtrace() into a preallocated lock-free
/// ring (slot claimed with one fetch_add; overflow counted, never blocked
/// on); symbolization via dladdr/__cxa_demangle happens strictly off-signal,
/// at Stop/Drain time. Output is collapsed/folded stack format
/// (`frame;frame;frame count`, flamegraph.pl-ready) plus a JSON top-N table.
///
/// **Contention profile.** util::Mutex's contended slow path and
/// util::CondVar's waits (see mutex.h) record per-callsite wait time into a
/// fixed lock-free table rendered by ContentionProfile() — the
/// `lock.contention.profile` report behind `/lockz`. Named mutexes
/// additionally feed `lock.<name>.contention_us` histograms in the metrics
/// registry.

/// \name Clamping bounds for profiler parameters (shared by the RPC, the
/// admin endpoint, and the tcvsd flag so every surface agrees).
/// @{
inline constexpr int kMinProfileHz = 1;
inline constexpr int kMaxProfileHz = 1000;
inline constexpr int kMinProfileSeconds = 1;
inline constexpr int kMaxProfileSeconds = 30;
/// @}

/// \brief One collected CPU profile, detached from the profiler: safe to
/// keep and render (folded stacks or a JSON top-N, as `/pprofz` serves).
struct CpuProfile {
  /// Sampling frequency the profile was collected at.
  int hz = 0;
  /// Wall-clock length of the collection window, seconds.
  double duration_s = 0;
  /// Samples captured (ring slots filled).
  uint64_t samples = 0;
  /// Samples dropped on ring overflow (raise hz × seconds past the ring and
  /// this grows; the profile stays valid, just truncated).
  uint64_t dropped = 0;
  /// Aggregated stacks, root-first semicolon-joined, sorted by count
  /// descending: {"main;Serve;Sha256::Update", 42}.
  std::vector<std::pair<std::string, uint64_t>> folded;

  /// Collapsed-stack text, one `stack count` line each — pipe through
  /// flamegraph.pl for a flame graph.
  std::string FoldedFormat() const;

  /// JSON: window metadata plus the top-`n` symbols by self (leaf) sample
  /// count, with inclusive counts alongside.
  std::string JsonTopN(size_t n) const;
};

/// Starts the sampling profiler at `hz` (clamped to
/// [kMinProfileHz, kMaxProfileHz]). One profiler per process:
/// FailedPrecondition if already running. `tcvsd --profile-hz N` calls this
/// at boot for always-on operation.
Status StartCpuProfiler(int hz);

/// True between a successful Start and the matching Stop.
bool CpuProfilerRunning();

/// Stops the profiler and returns everything sampled since Start (or the
/// last Drain). FailedPrecondition if not running.
Result<CpuProfile> StopCpuProfiler();

/// Snapshot-and-reset for an always-on profiler: returns the samples
/// accumulated since Start/previous Drain and resets the ring, leaving the
/// profiler running. FailedPrecondition if not running.
Result<CpuProfile> DrainCpuProfile();

/// Blocking windowed collection — the one call behind `/pprofz?seconds=N`
/// (and so `tcvs profile`). If an always-on profiler is running, drains it,
/// sleeps `seconds`, and drains again (the window rides the running
/// profiler; `hz` is ignored in favor of the running frequency). Otherwise
/// starts at `hz`, sleeps, stops. Windows are serialized: a second caller
/// gets FailedPrecondition("profiler busy") instead of queueing for up to
/// 30 s. Parameters are clamped to the kMin/kMax bounds above.
Result<CpuProfile> ProfileWindow(int hz, int seconds);

/// \name Lock-contention profile.
/// @{

/// Master switch for contention accounting (mutex slow paths and condvar
/// waits). Defaults to on; `tcvsd --no-contention-profile` clears it.
void SetContentionProfilingEnabled(bool enabled);
bool ContentionProfilingEnabled();

/// \brief One contended callsite: the PC a wait was attributed to, its
/// symbolized frame, and the accumulated damage.
struct ContentionSite {
  uintptr_t pc = 0;
  std::string symbol;
  uint64_t waits = 0;
  uint64_t total_us = 0;
};

/// The `lock.contention.profile` report: every recorded callsite, symbolized,
/// sorted by total_us descending.
std::vector<ContentionSite> ContentionProfile();

/// ContentionProfile() as one JSON object (what `/lockz` serves):
/// {"sites":[{"pc","symbol","waits","total_us"},…],"dropped":N}.
std::string ContentionJson();

/// Zeroes the contention table (test isolation; production never resets).
void ResetContentionForTesting();
/// @}

}  // namespace util
}  // namespace tcvs
