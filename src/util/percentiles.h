// Latency percentiles: exact over a sample list, or bounded over a stream.
//
// SortedQuantile is the exact nearest-rank quantile of a sorted sample, for
// callers that hold every sample (BatchQueryWithStats, the benches).
//
// LatencyHistogram serves long-lived callers (the query service) that
// record one sample per request for the process lifetime. It is a fixed
// log-bucketed histogram: 32 linear sub-buckets per power of two, so
// memory is constant and a quantile lands within +1/32 of the exact
// nearest-rank value. It holds counts, not samples, so histograms merge by
// adding counts and the merge of several services (the shard router)
// weights every request equally, whatever each service's volume. Nearest
// rank over one cumulative count keeps p50 <= p95 <= p99 by construction.

#ifndef PRSIM_UTIL_PERCENTILES_H_
#define PRSIM_UTIL_PERCENTILES_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace prsim {

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  PRSIM_DCHECK(q >= 0.0 && q <= 1.0);
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Fixed log-bucketed histogram of non-negative values (seconds). Octaves
/// [2^e, 2^(e+1)) for e in [kMinExp, kMaxExp) are split into 32 equal
/// sub-buckets; one underflow bucket takes values below 2^kMinExp (~0.93
/// ns) and one overflow bucket values from 2^kMaxExp (~12 days) up.
/// Quantile(q) reports the upper edge of the bucket holding the
/// nearest-rank sample, capped at the largest value seen, so for a sample
/// v inside the bucketed range it returns r with v <= r <= v * (1 + 1/32).
/// Not thread safe; callers serialize externally.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBuckets = 32;
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 20;
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void Add(double value) {
    ++counts_[BucketOf(value)];
    ++count_;
    max_ = std::max(max_, value);
  }

  /// Adds `other`'s counts: the result equals one histogram fed both
  /// sample streams.
  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  /// Total samples recorded.
  uint64_t count() const { return count_; }

  /// Nearest-rank quantile, q in [0, 1] (same rank rule as
  /// SortedQuantile); 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    PRSIM_DCHECK(q >= 0.0 && q <= 1.0);
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (rank >= count_) rank = count_ - 1;
    uint64_t seen = 0;
    size_t b = 0;
    for (; b + 1 < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) break;
    }
    return std::min(UpperEdge(b), max_);
  }

 private:
  static size_t BucketOf(double value) {
    if (!(value >= std::ldexp(1.0, kMinExp))) return 0;  // also NaN, < 0
    if (value >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
    int exp = 0;
    const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp
    // m in [0.5, 1): the octave is exp - 1 and (2m - 1) * 32 picks the
    // linear sub-bucket. Both products are exact in binary floating point.
    const auto sub = static_cast<size_t>((2.0 * mantissa - 1.0) *
                                         static_cast<double>(kSubBuckets));
    return 1 + static_cast<size_t>(exp - 1 - kMinExp) * kSubBuckets + sub;
  }

  static double UpperEdge(size_t bucket) {
    if (bucket == 0) return std::ldexp(1.0, kMinExp);
    if (bucket == kBuckets - 1) return std::numeric_limits<double>::infinity();
    const size_t i = bucket - 1;
    const int octave = kMinExp + static_cast<int>(i / kSubBuckets);
    const double sub = static_cast<double>(i % kSubBuckets + 1);
    return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), octave);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double max_ = 0;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_PERCENTILES_H_
