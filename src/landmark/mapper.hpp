// Landmark-based index-space construction (paper §3.1).
//
// Given k landmark points {l1..lk} in a metric space (D, d), every object
// x ∈ D maps to the index point (d(x,l1), …, d(x,lk)) ∈ R^k. By the
// triangle inequality this mapping is contractive under L∞:
//   L∞(I(x), I(y)) = max_i |d(x,li) - d(y,li)| <= d(x, y),
// so a near-neighbour query (q, r) is answered exactly by the k-cube of
// edge 2r centred at I(q) — a superset that the querier then refines.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "metric/metric_space.hpp"

namespace lmk {

/// A point in the k-dimensional landmark index space.
using IndexPoint = std::vector<double>;

/// One dimension's bounds in the index space.
struct Interval {
  double lo = 0;
  double hi = 0;
};

/// Per-dimension bounds of the index space.
using Boundary = std::vector<Interval>;

/// Uniform boundary: every dimension spans [lo, hi] — the "determined by
/// the original metric space" option (a bounded metric's global range).
[[nodiscard]] inline Boundary uniform_boundary(std::size_t dims, double lo,
                                               double hi) {
  LMK_CHECK(hi > lo);
  return Boundary(dims, Interval{lo, hi});
}

/// The landmark mapper: owns the landmark set and the index-space
/// boundary, and maps domain points to (clamped) index points.
template <MetricSpace S>
class LandmarkMapper {
 public:
  using Point = typename S::Point;

  /// `boundary` must have exactly landmarks.size() dimensions.
  LandmarkMapper(const S& space, std::vector<Point> landmarks,
                 Boundary boundary)
      : space_(&space),
        landmarks_(std::move(landmarks)),
        boundary_(std::move(boundary)) {
    LMK_CHECK(!landmarks_.empty());
    LMK_CHECK(boundary_.size() == landmarks_.size());
    for (const Interval& b : boundary_) LMK_CHECK(b.hi > b.lo);
  }

  /// Number of landmarks == index-space dimensionality.
  [[nodiscard]] std::size_t dims() const { return landmarks_.size(); }

  [[nodiscard]] const std::vector<Point>& landmarks() const {
    return landmarks_;
  }

  [[nodiscard]] const Boundary& boundary() const { return boundary_; }

  /// Map a domain point to its index point, clamped to the boundary
  /// ("data objects whose distance to the landmarks goes beyond the
  /// boundary will be mapped to the boundary points", §3.1).
  [[nodiscard]] IndexPoint map(const Point& p) const {
    IndexPoint out(dims());
    map_into(p, out);
    return out;
  }

  /// Clamped mapping into caller-provided storage — the bulk-load path
  /// maps whole batches into one flat row buffer, so no per-point
  /// IndexPoint is ever allocated.
  void map_into(const Point& p, std::span<double> out) const {
    LMK_CHECK(out.size() == dims());
    for (std::size_t i = 0; i < dims(); ++i) {
      double d = space_->distance(p, landmarks_[i]);
      const Interval& b = boundary_[i];
      out[i] = d < b.lo ? b.lo : (d > b.hi ? b.hi : d);
    }
  }

  /// Map without boundary clamping — used for query points, whose search
  /// region is clamped as a whole instead (a query just outside the
  /// boundary must still see entries near the edge).
  [[nodiscard]] IndexPoint map_unclamped(const Point& p) const {
    IndexPoint out(dims());
    for (std::size_t i = 0; i < dims(); ++i) {
      out[i] = space_->distance(p, landmarks_[i]);
    }
    return out;
  }

 private:
  const S* space_;
  std::vector<Point> landmarks_;
  Boundary boundary_;
};

/// Boundary "determined by the landmark selection procedure" (§3.1,
/// option 2): per dimension, the min and max distance between that
/// landmark and the initially sampled objects. A small relative margin
/// keeps boundary-grazing points strictly inside.
template <MetricSpace S>
[[nodiscard]] Boundary boundary_from_sample(
    const S& space, std::span<const typename S::Point> landmarks,
    std::span<const typename S::Point> sample, double margin = 1e-9) {
  LMK_CHECK(!landmarks.empty());
  LMK_CHECK(!sample.empty());
  Boundary out(landmarks.size());
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    double lo = 0, hi = 0;
    bool first = true;
    for (const auto& s : sample) {
      double d = space.distance(s, landmarks[i]);
      if (first) {
        lo = hi = d;
        first = false;
      } else {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
    }
    double pad = (hi - lo) * margin;
    if (hi <= lo) pad = 1e-9;  // degenerate: all sample equidistant
    out[i] = Interval{lo - pad, hi + pad};
  }
  return out;
}

/// L∞ distance between two index points — the contractive lower bound on
/// the original metric distance, used to rank candidates at index nodes.
/// Span-based so SoA stores can pass coordinate rows without
/// materializing an IndexPoint (std::vector<double> converts
/// implicitly).
[[nodiscard]] inline double index_lower_bound(std::span<const double> a,
                                              std::span<const double> b) {
  LMK_DCHECK(a.size() == b.size());
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = std::max(acc, std::abs(a[i] - b[i]));
  }
  return acc;
}

/// Braced-list convenience for tests.
[[nodiscard]] inline double index_lower_bound(
    std::initializer_list<double> a, std::initializer_list<double> b) {
  return index_lower_bound(std::span<const double>(a.begin(), a.size()),
                           std::span<const double>(b.begin(), b.size()));
}

}  // namespace lmk
