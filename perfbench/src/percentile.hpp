// Exact percentiles over raw samples.
//
// Every latency the benchmark reports is read off the sorted raw samples
// by nearest rank, never interpolated inside histogram buckets: a bucketed
// estimate jumps whenever the true value crosses a bucket edge, which reads
// as run-to-run noise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace qbench {

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least q% of the samples at or below it (q in [0, 100]; q = 0 gives
/// the minimum). Throws on an empty input.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q*n/100 that lands on an integer from rounding up a
  // whole rank through floating-point error.
  const double r = std::ceil(q / 100.0 * n - 1e-9);
  const std::size_t rank = static_cast<std::size_t>(std::clamp(r, 1.0, n));
  return sorted[rank - 1];
}

/// The tail a sample size supports: p99 when at least kMinBeyond samples
/// lie above it, otherwise the highest percentile that still has
/// kMinBeyond samples above it. A percentile with only a few samples
/// beyond it moves with every hiccup of the host, so that the same code
/// reads differently from run to run.
struct tail_point {
  double percentile = 0;  ///< 100 * (n - beyond) / n
  double value = 0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< max(kMinBeyond, ceil(n / 100))
  static constexpr std::size_t kMinBeyond = 25;
};

/// Throws when fewer than kMinBeyond + 1 samples exist.
inline tail_point tail_of(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n <= tail_point::kMinBeyond) {
    throw std::invalid_argument("tail_of: need more than 25 samples");
  }
  tail_point t;
  t.samples = n;
  t.beyond = std::max(tail_point::kMinBeyond, (n + 99) / 100);
  t.percentile =
      100.0 * static_cast<double>(n - t.beyond) / static_cast<double>(n);
  t.value = nearest_rank(sorted, t.percentile);
  return t;
}

}  // namespace qbench
