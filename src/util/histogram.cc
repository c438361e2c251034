#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/jsonish.h"

namespace tcvs {
namespace util {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

size_t Histogram::BucketFor(uint64_t value) {
  // Values 0..3 map to their own buckets; beyond that, 4 sub-buckets per
  // power of two: bucket = 4*floor(log2(v)) + top-2-bits-after-msb.
  if (value < 4) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  uint64_t sub = (value >> (msb - 2)) & 0x3;  // Two bits below the MSB.
  size_t bucket = static_cast<size_t>(4 * msb) + static_cast<size_t>(sub);
  return std::min(bucket, kBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket < 4) return bucket;
  size_t msb = bucket / 4;
  uint64_t sub = bucket % 4;
  // Largest value whose (msb, sub) matches: next sub-bucket start − 1.
  uint64_t base = 1ull << msb;
  uint64_t step = base / 4;
  return base + step * (sub + 1) - 1;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)] += 1;
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram Histogram::DeltaSince(const Histogram& earlier) const {
  Histogram delta;
  // A total count that moved backwards means the counter was reset between
  // the two snapshots (server restart between polls): the interval is
  // unknowable, so report it as empty rather than per-bucket underflow
  // garbage (the next poll pair is coherent again).
  if (count_ < earlier.count_) return delta;
  size_t lowest = kBuckets;
  size_t highest = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t d =
        buckets_[i] > earlier.buckets_[i] ? buckets_[i] - earlier.buckets_[i]
                                          : 0;
    if (d == 0) continue;
    delta.buckets_[i] = d;
    delta.count_ += d;
    lowest = std::min(lowest, i);
    highest = std::max(highest, i);
  }
  delta.sum_ = sum_ > earlier.sum_ ? sum_ - earlier.sum_ : 0;
  if (delta.count_ > 0) {
    // The true interval extremes are unrecoverable; use the differenced
    // buckets' bounds so Quantile's clamp stays consistent with the mass.
    delta.min_ = lowest == 0 ? 0 : BucketUpperBound(lowest - 1) + 1;
    delta.max_ = BucketUpperBound(highest);
  }
  return delta;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank in [0, count]; the containing bucket is the first whose
  // cumulative count reaches it. Returning the bucket's upper bound would
  // bias every quantile upward by up to the bucket width (25% relative), so
  // interpolate linearly across the bucket span instead.
  const double rank = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t before = seen;
    seen += buckets_[i];
    if (static_cast<double>(seen) < rank) continue;
    const uint64_t lower = i == 0 ? 0 : BucketUpperBound(i - 1);
    const uint64_t upper = BucketUpperBound(i);
    const double frac =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets_[i]);
    const double width = static_cast<double>(upper - lower);
    const uint64_t value =
        lower + static_cast<uint64_t>(std::llround(frac * width));
    return std::clamp(value, min_, max_);
  }
  return max_;
}

std::string Histogram::BucketsJson() const {
  std::string out = "[";
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (out.size() > 1) out.push_back(',');
    out += "[" + std::to_string(i) + "," + std::to_string(buckets_[i]) + "]";
  }
  out.push_back(']');
  return out;
}

Result<Histogram> Histogram::FromJson(const JsonValue& json) {
  const JsonValue* buckets = json.Get("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return Status::InvalidArgument("histogram has no bucket array");
  }
  Histogram h;
  h.count_ = json.GetU64("count");
  h.sum_ = json.GetU64("sum");
  h.max_ = json.GetU64("max");
  if (h.count_ != 0) h.min_ = json.GetU64("min");
  uint64_t total = 0;
  for (const JsonValue& entry : buckets->array()) {
    if (!entry.is_array() || entry.array().size() != 2 ||
        !entry.array()[0].is_number() || !entry.array()[1].is_number()) {
      return Status::InvalidArgument("bucket entry is not [index,count]");
    }
    const double index = entry.array()[0].number();
    if (!(index >= 0) || index >= static_cast<double>(kBuckets) ||
        index != std::floor(index)) {
      return Status::InvalidArgument("bad bucket index");
    }
    const uint64_t n = entry.array()[1].AsU64();
    h.buckets_[static_cast<size_t>(index)] += n;
    total += n;
  }
  if (total != h.count_) {
    return Status::InvalidArgument("histogram bucket counts disagree");
  }
  return h;
}

std::string Histogram::Summary() const {
  char buf[160];
  snprintf(buf, sizeof(buf),
           "count=%llu mean=%.2f p50=%llu p90=%llu p99=%llu max=%llu",
           static_cast<unsigned long long>(count_), mean(),
           static_cast<unsigned long long>(p50()),
           static_cast<unsigned long long>(p90()),
           static_cast<unsigned long long>(p99()),
           static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace util
}  // namespace tcvs
