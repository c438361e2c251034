#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace tcvs {
namespace util {

class JsonValue;

/// \brief Fixed-memory latency histogram with exponential buckets (powers of
/// two with 4 sub-buckets each, HdrHistogram-lite). Records values in
/// arbitrary units; quantiles are approximate to the bucket width (the
/// reported value is linearly interpolated within the containing bucket, so
/// the error is bounded by the bucket width and carries no systematic upward
/// bias), which is plenty for round-count and microsecond latencies.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  /// Per-bucket difference `this − earlier` (clamped at zero), for interval
  /// quantiles between two cumulative snapshots of the same metric (powers
  /// `tcvs top`). min()/max() of the result are the bucket bounds of the
  /// differenced mass — the exact extremes of the interval are not
  /// recoverable from two cumulative snapshots.
  Histogram DeltaSince(const Histogram& earlier) const;

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Value at quantile q ∈ [0, 1], linearly interpolated within the
  /// containing bucket and clamped to [min(), max()].
  uint64_t Quantile(double q) const;
  uint64_t p50() const { return Quantile(0.50); }
  uint64_t p90() const { return Quantile(0.90); }
  uint64_t p99() const { return Quantile(0.99); }

  /// "count=… mean=… p50=… p90=… p99=… max=…" one-liner for reports.
  std::string Summary() const;

  /// \name JSON form (the `/varz` histogram object). BucketsJson() renders
  /// the non-zero buckets as a sparse `[[index,count],…]` array; FromJson
  /// reads an object carrying `count`, `sum`, `min`, `max` and that array
  /// back, rejecting an out-of-range bucket index or bucket counts that do
  /// not sum to `count`. The round trip is exact, so interval quantiles
  /// (DeltaSince) work on scraped snapshots.
  /// @{
  std::string BucketsJson() const;
  static Result<Histogram> FromJson(const JsonValue& json);
  /// @}

  /// Bucket index a value lands in (exposed for exemplar slotting — the
  /// metrics layer keys latency exemplars by the bucket of their sample).
  static size_t BucketFor(uint64_t value);

 private:
  static uint64_t BucketUpperBound(size_t bucket);

  static constexpr size_t kBuckets = 4 * 64 + 1;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

}  // namespace util
}  // namespace tcvs
