// Locality-preserving hashing of the k-dimensional index space onto the
// m-bit Chord key space (paper §3.2, Algorithm 2).
//
// The index space is split m times, cycling through the dimensions
// (division i splits dimension (i-1) mod k at the midpoint of the
// current range); a point's key collects one bit per division — 1 when
// the point falls in the upper half. The 2^m resulting hypercuboids are
// exactly the leaves of a balanced k-d tree, and every prefix of length
// p identifies an internal tree node / larger cuboid. Nearby index
// points therefore share long key prefixes, which Chord's successor
// mapping turns into placement on the same or neighbouring nodes.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "landmark/mapper.hpp"

namespace lmk {

/// An axis-aligned box in the index space (a query region, or a cuboid).
struct Region {
  std::vector<Interval> ranges;

  [[nodiscard]] std::size_t dims() const { return ranges.size(); }
};

/// A k-d tree prefix: the first `length` bits of `key` identify a
/// hypercuboid; the remaining bits of `key` are zero-padding.
struct Prefix {
  Id key = 0;
  int length = 0;
};

/// Algorithm 2 (LPH_Function): the m-bit key of the leaf cuboid holding
/// `point`. Points are clamped to the boundary first (the mapper already
/// clamps, but queries may construct off-boundary points). Points
/// exactly on a split plane fall in the *lower* half (the algorithm
/// tests `point[j] > mid`). Span-based so flat coordinate rows (SoA
/// stores, streaming loads) hash without materializing an IndexPoint.
[[nodiscard]] Id lph_hash(std::span<const double> point,
                          const Boundary& boundary);

/// Braced-list convenience (tests write lph_hash({0.75, 0.25}, b)).
[[nodiscard]] inline Id lph_hash(std::initializer_list<double> point,
                                 const Boundary& boundary) {
  return lph_hash(std::span<const double>(point.begin(), point.size()),
                  boundary);
}

/// The prefix (code of the smallest enclosing cuboid) for a query
/// region: split until the region no longer fits entirely inside one
/// half (paper §3.3, "the code of the smallest hypercuboid that can
/// completely hold the query region"). The region is clamped to the
/// boundary. length == kIdBits means the region fits in one leaf.
[[nodiscard]] Prefix enclosing_prefix(const Region& region,
                                      const Boundary& boundary);

/// Geometry of the cuboid identified by `prefix`: walk the splits encoded
/// in the prefix bits and return the resulting box.
[[nodiscard]] Region cuboid_region(Prefix prefix, const Boundary& boundary);

/// The split midpoint used at division `p` (1-based) for a query that has
/// already fixed the first p-1 bits of `prefix_key` — the value QuerySplit
/// (Algorithm 4) computes by replaying prior splits of dimension
/// (p-1) mod k. Also returns the dimension being split via `dim_out`.
[[nodiscard]] double split_plane(Id prefix_key, int p, const Boundary& boundary,
                                 int* dim_out);

/// True when `region` (already clamped) intersects the cuboid of
/// `prefix`; closed-interval semantics on both sides.
[[nodiscard]] bool region_intersects_cuboid(const Region& region,
                                            Prefix prefix,
                                            const Boundary& boundary);

/// Clamp a region to the boundary. A dimension lying entirely outside
/// collapses to a degenerate interval on the nearest edge — matching the
/// storage rule that out-of-boundary points are mapped to the boundary
/// (§3.1), so such queries still see the edge-mapped entries.
void clamp_region(Region& region, const Boundary& boundary);

/// The cube of edge 2r centred on `center` (a near-neighbour query's
/// index-space region before clamping).
[[nodiscard]] Region query_region(const IndexPoint& center, double radius);

/// L∞ distance from `point` to the axis-aligned box (0 for any point
/// inside it, closed-interval semantics). Used by the serving layer's
/// coverage-based cache invalidation (src/serve/): a mutated entry
/// whose point is at distance 0 from a cached query region covers it,
/// so the cached hit-list must be dropped.
[[nodiscard]] inline double linf_box_distance(std::span<const double> point,
                                              const Region& box) {
  double dist = 0.0;
  for (std::size_t d = 0; d < point.size(); ++d) {
    const Interval& r = box.ranges[d];
    dist = std::max({dist, r.lo - point[d], point[d] - r.hi});
  }
  return dist;
}

}  // namespace lmk
