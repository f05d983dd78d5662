// Streaming and batch statistics used by the evaluation harness.
#pragma once

#include <cstddef>
#include <vector>

namespace lmk {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Accumulator {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Mean of the observations (0 when empty).
  double mean() const { return n_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance (0 when fewer than two observations).
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Batch percentile with linear interpolation; p in [0, 100].
/// Copies internally (callers keep their data).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// In-place percentile: same value as percentile() but partially orders
/// `values` with nth_element instead of copying and fully sorting — use
/// this on large sample vectors the caller no longer needs ordered.
[[nodiscard]] double percentile_nth(std::vector<double>& values, double p);

/// Gini coefficient of a non-negative load vector — the load-imbalance
/// summary used by the load-balancing benches (0 = perfectly even,
/// -> 1 = one node holds everything).
[[nodiscard]] double gini(std::vector<double> values);

}  // namespace lmk
