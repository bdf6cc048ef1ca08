#ifndef SURFER_BENCH_PERCENTILE_H_
#define SURFER_BENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace surfer_bench {

/// Exact nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(p/100 * n), clamped to [1, n]. Every returned value is
/// an observed sample, so a gate sees the real tail rather than the bucket
/// bound of a log2 histogram (common/histogram.h reads p99 as 96 or 192 us).
/// Returns 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  // The epsilon keeps representation error in p (99.9 is not exact in
  // binary) from pushing an exact rank like 999 of 1000 up to 1000.
  const double exact = p / 100.0 * static_cast<double>(sorted.size());
  const double rank = std::ceil(exact - 1e-9);
  const size_t index =
      rank < 1.0 ? 0
                 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

/// Sorts `samples` and returns the nearest-rank percentile.
inline double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, p);
}

}  // namespace surfer_bench

#endif  // SURFER_BENCH_PERCENTILE_H_
