#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace lmk {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double p) {
  return percentile_nth(values, p);
}

double percentile_nth(std::vector<double>& values, double p) {
  LMK_CHECK(!values.empty());
  LMK_CHECK(p >= 0.0 && p <= 100.0);
  if (values.size() == 1) return values[0];
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) {
    return *std::max_element(values.begin(), values.end());
  }
  // nth_element leaves [lo+1, end) all >= values[lo]; the smallest of
  // that suffix is the (lo+1)-th order statistic, so the interpolated
  // value matches the sort-based definition exactly.
  std::nth_element(values.begin(), values.begin() + static_cast<long>(lo),
                   values.end());
  double v_lo = values[lo];
  if (frac == 0.0) return v_lo;
  double v_hi =
      *std::min_element(values.begin() + static_cast<long>(lo) + 1,
                        values.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double gini(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double cum = 0;
  double weighted = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    LMK_CHECK(values[i] >= 0.0);
    weighted += static_cast<double>(i + 1) * values[i];
    cum += values[i];
  }
  if (cum == 0) return 0.0;
  auto n = static_cast<double>(values.size());
  return (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
}

}  // namespace lmk
