#ifndef RDD_PERFBENCH_STATS_H_
#define RDD_PERFBENCH_STATS_H_

// Sample statistics shared by the benchmark's workloads and load generator.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace rdd::perfbench {

/// Nearest-rank percentile, `pct` in (0, 100]: the smallest sample such that
/// at least pct% of the samples are at or below it (rank ceil(pct/100 * n)).
/// NaN on an empty sample. Takes a copy because it partially sorts.
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return std::nan("");
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// The highest of p99.9, p99, p90 and p75 that leaves at least ten samples
/// above its nearest rank in a sample of `n`, or 0 when none does (n < 40).
/// A tail percentile read from fewer samples is the sample maximum or close
/// to it, and says nothing about the tail.
inline double SupportedTailPercentile(size_t n) {
  for (const double pct : {99.9, 99.0, 90.0, 75.0}) {
    const auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
    if (n >= rank + 10) return pct;
  }
  return 0.0;
}

/// SplitMix64 finalizer over (seed, a, b): derives independent sub-seeds for
/// data sets, training runs and query streams from the one workload seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xbf58476d1ce4e5b9ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rdd::perfbench

#endif  // RDD_PERFBENCH_STATS_H_
