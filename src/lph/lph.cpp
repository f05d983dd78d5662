#include "lph/lph.hpp"

#include <algorithm>

namespace lmk {

Id lph_hash(std::span<const double> point, const Boundary& boundary) {
  const std::size_t k = boundary.size();
  LMK_CHECK(point.size() == k);
  LMK_CHECK(k >= 1);
  // Division i splits dimension (i - 1) mod k, so dimension j owns
  // divisions j+1, j+1+k, ...; halving one local interval along them
  // gives the same midpoints as Algorithm 2's interleaved walk.
  const int used = static_cast<int>(std::min<std::size_t>(k, kIdBits));
  Id key = 0;
  for (int j = 0; j < used; ++j) {
    const Interval& b = boundary[static_cast<std::size_t>(j)];
    double lo = b.lo;
    double hi = b.hi;
    const double v = std::clamp(point[static_cast<std::size_t>(j)], lo, hi);
    for (int i = j + 1; i <= kIdBits; i += static_cast<int>(k)) {
      const double mid = (lo + hi) / 2.0;
      const bool upper = v > mid;
      // Selects, not branches: the halves are taken at random.
      lo = upper ? mid : lo;
      hi = upper ? hi : mid;
      key |= Id{upper} << (kIdBits - i);
    }
  }
  return key;
}

void clamp_region(Region& region, const Boundary& boundary) {
  LMK_CHECK(region.dims() == boundary.size());
  for (std::size_t j = 0; j < boundary.size(); ++j) {
    Interval& q = region.ranges[j];
    LMK_CHECK(q.lo <= q.hi);
    // A region entirely outside the boundary snaps to the nearest edge
    // rather than failing: out-of-boundary *entries* are stored at the
    // boundary point (§3.1), so an out-of-boundary query must still see
    // them (degenerate edge interval).
    q.lo = std::clamp(q.lo, boundary[j].lo, boundary[j].hi);
    q.hi = std::clamp(q.hi, boundary[j].lo, boundary[j].hi);
  }
}

Prefix enclosing_prefix(const Region& region, const Boundary& boundary) {
  std::size_t k = boundary.size();
  LMK_CHECK(region.dims() == k);
  std::vector<Interval> r(boundary.begin(), boundary.end());
  Prefix pre;
  for (int i = 1; i <= kIdBits; ++i) {
    std::size_t j = static_cast<std::size_t>(i - 1) % k;
    double mid = (r[j].lo + r[j].hi) / 2.0;
    const Interval& q = region.ranges[j];
    if (q.lo > mid) {
      r[j].lo = mid;
      pre.key = set_bit(pre.key, i);
      pre.length = i;
    } else if (q.hi <= mid) {
      // Points exactly on the plane hash to the lower half, so a region
      // with hi == mid still fits entirely in the lower child. (The
      // paper's Alg. 4 tests `hi < mid`, which is equivalent up to a
      // measure-zero boundary and strictly tighter this way.)
      r[j].hi = mid;
      pre.length = i;
    } else {
      break;  // straddles the plane: previous prefix is the answer
    }
  }
  return pre;
}

Region cuboid_region(Prefix prefix, const Boundary& boundary) {
  std::size_t k = boundary.size();
  LMK_CHECK(prefix.length >= 0 && prefix.length <= kIdBits);
  Region out;
  out.ranges.assign(boundary.begin(), boundary.end());
  for (int i = 1; i <= prefix.length; ++i) {
    std::size_t j = static_cast<std::size_t>(i - 1) % k;
    double mid = (out.ranges[j].lo + out.ranges[j].hi) / 2.0;
    if (get_bit(prefix.key, i) == 1) {
      out.ranges[j].lo = mid;
    } else {
      out.ranges[j].hi = mid;
    }
  }
  return out;
}

double split_plane(Id prefix_key, int p, const Boundary& boundary,
                   int* dim_out) {
  std::size_t k = boundary.size();
  LMK_CHECK(p >= 1 && p <= kIdBits);
  std::size_t j = static_cast<std::size_t>(p - 1) % k;
  if (dim_out != nullptr) *dim_out = static_cast<int>(j);
  // Replay the earlier splits of dimension j (divisions j+1, j+1+k, …
  // strictly before p) to reconstruct its current range, exactly as
  // Algorithm 4 lines 1-11 do.
  Interval r = boundary[j];
  for (int i = static_cast<int>(j) + 1; i < p; i += static_cast<int>(k)) {
    double mid = (r.lo + r.hi) / 2.0;
    if (get_bit(prefix_key, i) == 1) {
      r.lo = mid;
    } else {
      r.hi = mid;
    }
  }
  return (r.lo + r.hi) / 2.0;
}

bool region_intersects_cuboid(const Region& region, Prefix prefix,
                              const Boundary& boundary) {
  Region cub = cuboid_region(prefix, boundary);
  for (std::size_t j = 0; j < boundary.size(); ++j) {
    if (region.ranges[j].hi < cub.ranges[j].lo ||
        region.ranges[j].lo > cub.ranges[j].hi) {
      return false;
    }
  }
  return true;
}

Region query_region(const IndexPoint& center, double radius) {
  LMK_CHECK(radius >= 0);
  Region out;
  out.ranges.reserve(center.size());
  for (double c : center) {
    out.ranges.push_back(Interval{c - radius, c + radius});
  }
  return out;
}

}  // namespace lmk
