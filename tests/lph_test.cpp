// Unit + property tests for the locality-preserving hash (Algorithm 2)
// and the cuboid/prefix machinery that query routing builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "lph/lph.hpp"

namespace lmk {
namespace {

Boundary unit_box(std::size_t dims) { return uniform_boundary(dims, 0, 1); }

// Algorithm 2 as first written: one interleaved walk over a heap copy of
// the boundary, taking each half by a branch.
Id lph_hash_allocating_reference(std::span<const double> point,
                                 const Boundary& boundary) {
  std::size_t k = boundary.size();
  std::vector<Interval> r(boundary.begin(), boundary.end());
  Id key = 0;
  for (int i = 1; i <= kIdBits; ++i) {
    std::size_t j = static_cast<std::size_t>(i - 1) % k;
    double v = std::clamp(point[j], boundary[j].lo, boundary[j].hi);
    double mid = (r[j].lo + r[j].hi) / 2.0;
    if (v > mid) {
      r[j].lo = mid;
      key = (key << 1) | 1u;
    } else {
      r[j].hi = mid;
      key = key << 1;
    }
  }
  return key;
}

TEST(Lph, HashMatchesAllocatingReference) {
  // Every kind of coordinate, mixed within one point: inside the
  // boundary, outside it on either side (clamped), on either edge, and
  // exactly on one of the midpoints the walk computes (a split plane,
  // which hashes to the lower half).
  Rng rng(23);
  for (const std::size_t k : {1u, 2u, 3u, 10u, 33u, 64u, 65u}) {
    Boundary uneven(k);
    for (std::size_t d = 0; d < k; ++d) {
      uneven[d] = Interval{-3.7 + 0.03 * static_cast<double>(d),
                           11.2 - 0.02 * static_cast<double>(d)};
    }
    for (const Boundary& b : {unit_box(k), uneven}) {
      // Dimension d is split at divisions d+1, d+1+k, ...
      const int depth = static_cast<int>((kIdBits + k - 1) / k);
      std::vector<double> pt(k);
      for (int n = 0; n < 2000; ++n) {
        for (std::size_t d = 0; d < k; ++d) {
          const Interval& r = b[d];
          switch (rng.below(6)) {
            case 0:
              pt[d] = rng.uniform(r.lo, r.hi);
              break;
            case 1:
              pt[d] = r.lo - rng.uniform(0, 5);
              break;
            case 2:
              pt[d] = r.hi + rng.uniform(0, 5);
              break;
            case 3:
              pt[d] = r.lo;
              break;
            case 4:
              pt[d] = r.hi;
              break;
            default: {
              // Walk a random path of halvings and land on its midpoint.
              double lo = r.lo;
              double hi = r.hi;
              const int steps =
                  static_cast<int>(rng.below(static_cast<std::uint64_t>(
                      depth)));
              for (int s = 0; s < steps; ++s) {
                const double mid = (lo + hi) / 2.0;
                (rng.below(2) == 1 ? lo : hi) = mid;
              }
              pt[d] = (lo + hi) / 2.0;
            }
          }
        }
        ASSERT_EQ(lph_hash(pt, b), lph_hash_allocating_reference(pt, b))
            << "k=" << k << " point " << n;
      }
    }
  }
}

TEST(LphHash, OneDimensionIsScaledValue) {
  Boundary b = unit_box(1);
  // In 1-D the key is just the binary expansion of the coordinate.
  EXPECT_EQ(lph_hash({0.0}, b), 0u);
  EXPECT_EQ(lph_hash({0.75}, b) >> 62, 0b10u);
  // 0.5 sits exactly on the first split plane: lower half, bit 0.
  EXPECT_EQ(get_bit(lph_hash({0.5}, b), 1), 0);
  EXPECT_EQ(get_bit(lph_hash({0.500001}, b), 1), 1);
}

TEST(LphHash, TwoDimensionalQuadrants) {
  Boundary b = unit_box(2);
  // First bit: dim0 split; second bit: dim1 split.
  Id k = lph_hash({0.75, 0.25}, b);
  EXPECT_EQ(get_bit(k, 1), 1);
  EXPECT_EQ(get_bit(k, 2), 0);
  k = lph_hash({0.25, 0.75}, b);
  EXPECT_EQ(get_bit(k, 1), 0);
  EXPECT_EQ(get_bit(k, 2), 1);
}

TEST(LphHash, ClampsOutOfRangePoints) {
  Boundary b = unit_box(2);
  EXPECT_EQ(lph_hash({-5.0, -5.0}, b), lph_hash({0.0, 0.0}, b));
  EXPECT_EQ(lph_hash({9.0, 9.0}, b), lph_hash({1.0, 1.0}, b));
}

TEST(LphHash, MonotoneInFirstDimension) {
  // Larger dim-0 coordinate can only raise the bits dim 0 controls; with
  // all other coordinates equal, the key is monotone.
  Boundary b = unit_box(3);
  Rng rng(1);
  for (int t = 0; t < 200; ++t) {
    double y = rng.uniform(), z = rng.uniform();
    double x1 = rng.uniform(), x2 = rng.uniform();
    if (x1 > x2) std::swap(x1, x2);
    EXPECT_LE(lph_hash({x1, y, z}, b), lph_hash({x2, y, z}, b));
  }
}

TEST(LphHash, LocalityNearbyPointsShareLongPrefixes) {
  Boundary b = unit_box(2);
  Id a = lph_hash({0.3000001, 0.70001}, b);
  Id c = lph_hash({0.3000002, 0.70002}, b);
  Id far = lph_hash({0.9, 0.1}, b);
  EXPECT_GT(common_prefix_length(a, c), common_prefix_length(a, far));
  EXPECT_GE(common_prefix_length(a, c), 20);
}

TEST(LphHash, PointInItsOwnLeafCuboid) {
  Boundary b = unit_box(3);
  Rng rng(2);
  for (int t = 0; t < 200; ++t) {
    IndexPoint p{rng.uniform(), rng.uniform(), rng.uniform()};
    Id key = lph_hash(p, b);
    // Every prefix of the key identifies a cuboid containing the point
    // (up to the closed-boundary convention on split planes).
    for (int len : {1, 2, 5, 13, 40}) {
      Region cub = cuboid_region(Prefix{prefix(key, len), len}, b);
      for (std::size_t d = 0; d < 3; ++d) {
        EXPECT_LE(cub.ranges[d].lo - 1e-12, p[d]);
        EXPECT_GE(cub.ranges[d].hi + 1e-12, p[d]);
      }
    }
  }
}

TEST(CuboidRegion, RootIsBoundary) {
  Boundary b = uniform_boundary(2, -3, 7);
  Region r = cuboid_region(Prefix{0, 0}, b);
  for (const auto& iv : r.ranges) {
    EXPECT_DOUBLE_EQ(iv.lo, -3);
    EXPECT_DOUBLE_EQ(iv.hi, 7);
  }
}

TEST(CuboidRegion, AlternatesDimensions) {
  Boundary b = unit_box(2);
  // Prefix "1" = upper half of dim 0.
  Region r = cuboid_region(Prefix{set_bit(0, 1), 1}, b);
  EXPECT_DOUBLE_EQ(r.ranges[0].lo, 0.5);
  EXPECT_DOUBLE_EQ(r.ranges[0].hi, 1.0);
  EXPECT_DOUBLE_EQ(r.ranges[1].lo, 0.0);
  // Prefix "10" = upper dim0, lower dim1.
  r = cuboid_region(Prefix{set_bit(0, 1), 2}, b);
  EXPECT_DOUBLE_EQ(r.ranges[1].hi, 0.5);
  // Prefix "101" = and then lower... third split is dim0 again: bit 1.
  Id k = set_bit(set_bit(0, 1), 3);
  r = cuboid_region(Prefix{k, 3}, b);
  EXPECT_DOUBLE_EQ(r.ranges[0].lo, 0.75);
  EXPECT_DOUBLE_EQ(r.ranges[0].hi, 1.0);
}

TEST(CuboidRegion, SiblingsPartitionParent) {
  Boundary b = unit_box(3);
  Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    int len = 1 + static_cast<int>(rng.below(20));
    Id key = prefix(rng.next(), len);
    Region parent = cuboid_region(Prefix{key, len}, b);
    Region low = cuboid_region(Prefix{key, len + 1}, b);
    Region high = cuboid_region(Prefix{set_bit(key, len + 1), len + 1}, b);
    std::size_t j = static_cast<std::size_t>(len) % 3;
    double mid = (parent.ranges[j].lo + parent.ranges[j].hi) / 2;
    EXPECT_DOUBLE_EQ(low.ranges[j].hi, mid);
    EXPECT_DOUBLE_EQ(high.ranges[j].lo, mid);
    for (std::size_t d = 0; d < 3; ++d) {
      if (d == j) continue;
      EXPECT_DOUBLE_EQ(low.ranges[d].lo, parent.ranges[d].lo);
      EXPECT_DOUBLE_EQ(high.ranges[d].hi, parent.ranges[d].hi);
    }
  }
}

TEST(EnclosingPrefix, WholeSpaceHasEmptyPrefix) {
  Boundary b = unit_box(2);
  Region r{{Interval{0, 1}, Interval{0, 1}}};
  Prefix p = enclosing_prefix(r, b);
  EXPECT_EQ(p.length, 0);
}

TEST(EnclosingPrefix, StraddlingFirstPlaneStaysRoot) {
  Boundary b = unit_box(2);
  Region r{{Interval{0.4, 0.6}, Interval{0.1, 0.2}}};
  EXPECT_EQ(enclosing_prefix(r, b).length, 0);
}

TEST(EnclosingPrefix, QuadrantRegion) {
  Boundary b = unit_box(2);
  Region r{{Interval{0.6, 0.9}, Interval{0.1, 0.4}}};
  Prefix p = enclosing_prefix(r, b);
  EXPECT_GE(p.length, 2);
  EXPECT_EQ(get_bit(p.key, 1), 1);
  EXPECT_EQ(get_bit(p.key, 2), 0);
}

TEST(EnclosingPrefix, PaperFigure1Example) {
  // Figure 1(a): 2-D space split 3 times; the rectangle "011" (lower
  // half of dim0, upper half of dim1, upper quarter... third split is on
  // dim0 again) holds the query. Construct a region inside cuboid 011
  // and check the prefix.
  Boundary b = unit_box(2);
  Region cub = cuboid_region(Prefix{0b011ull << 61, 3}, b);
  Region query{{Interval{cub.ranges[0].lo + 0.01, cub.ranges[0].hi - 0.01},
                Interval{cub.ranges[1].lo + 0.01, cub.ranges[1].hi - 0.01}}};
  Prefix p = enclosing_prefix(query, b);
  EXPECT_GE(p.length, 3);
  EXPECT_EQ(prefix(p.key, 3), 0b011ull << 61);
}

TEST(EnclosingPrefix, RegionAlwaysInsideItsCuboid) {
  Boundary b = unit_box(3);
  Rng rng(4);
  for (int t = 0; t < 300; ++t) {
    Region r;
    for (int d = 0; d < 3; ++d) {
      double lo = rng.uniform(), hi = rng.uniform();
      if (lo > hi) std::swap(lo, hi);
      r.ranges.push_back(Interval{lo, hi});
    }
    Prefix p = enclosing_prefix(r, b);
    Region cub = cuboid_region(p, b);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(r.ranges[d].lo, cub.ranges[d].lo - 1e-12);
      EXPECT_LE(r.ranges[d].hi, cub.ranges[d].hi + 1e-12);
    }
    // Maximality: splitting once more must not contain the region, or
    // the prefix is a leaf.
    if (p.length < kIdBits) {
      int dim = 0;
      double mid = split_plane(p.key, p.length + 1, b, &dim);
      const Interval& iv = r.ranges[static_cast<std::size_t>(dim)];
      EXPECT_TRUE(iv.lo <= mid && iv.hi > mid)
          << "region fits a child but prefix stopped early";
    }
  }
}

TEST(SplitPlane, ReplaysPriorSplits) {
  Boundary b = unit_box(2);
  // Prefix "1" fixed (dim0 upper half); division 3 splits dim0 again:
  // plane at 0.75.
  int dim = -1;
  double mid = split_plane(set_bit(0, 1), 3, b, &dim);
  EXPECT_EQ(dim, 0);
  EXPECT_DOUBLE_EQ(mid, 0.75);
  // Division 2 splits dim1 for the first time: plane at 0.5.
  mid = split_plane(set_bit(0, 1), 2, b, &dim);
  EXPECT_EQ(dim, 1);
  EXPECT_DOUBLE_EQ(mid, 0.5);
}

TEST(SplitPlane, MatchesCuboidMidpoint) {
  Boundary b = unit_box(3);
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    int len = static_cast<int>(rng.below(30));
    Id key = prefix(rng.next(), len);
    int dim = -1;
    double mid = split_plane(key, len + 1, b, &dim);
    Region cub = cuboid_region(Prefix{key, len}, b);
    const Interval& iv = cub.ranges[static_cast<std::size_t>(dim)];
    EXPECT_DOUBLE_EQ(mid, (iv.lo + iv.hi) / 2);
    EXPECT_EQ(dim, len % 3);
  }
}

TEST(ClampRegion, ClipsAndSnapsOutsideRegionsToEdge) {
  Boundary b = unit_box(2);
  Region inside{{Interval{-1, 0.5}, Interval{0.2, 2.0}}};
  clamp_region(inside, b);
  EXPECT_DOUBLE_EQ(inside.ranges[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(inside.ranges[1].hi, 1.0);
  // Entirely outside: snaps to the nearest edge (where out-of-boundary
  // entries are stored) instead of becoming an empty query.
  Region outside{{Interval{2, 3}, Interval{0, 1}}};
  clamp_region(outside, b);
  EXPECT_DOUBLE_EQ(outside.ranges[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(outside.ranges[0].hi, 1.0);
}

TEST(QueryRegion, CubeAroundCenter) {
  Region r = query_region({0.5, 0.5}, 0.1);
  EXPECT_DOUBLE_EQ(r.ranges[0].lo, 0.4);
  EXPECT_DOUBLE_EQ(r.ranges[0].hi, 0.6);
  EXPECT_DOUBLE_EQ(r.ranges[1].lo, 0.4);
}

TEST(RegionIntersectsCuboid, BasicOverlap) {
  Boundary b = unit_box(2);
  Region r{{Interval{0.4, 0.6}, Interval{0.4, 0.6}}};
  EXPECT_TRUE(region_intersects_cuboid(r, Prefix{0, 1}, b));
  EXPECT_TRUE(region_intersects_cuboid(r, Prefix{set_bit(0, 1), 1}, b));
  // Cuboid "11": dim0 upper, dim1 upper — touches at the corner.
  Id k = set_bit(set_bit(0, 1), 2);
  EXPECT_TRUE(region_intersects_cuboid(r, Prefix{k, 2}, b));
  Region far{{Interval{0.0, 0.2}, Interval{0.0, 0.2}}};
  EXPECT_FALSE(region_intersects_cuboid(far, Prefix{k, 2}, b));
}

Region box2(double lo, double hi) {
  return Region{{Interval{lo, hi}, Interval{lo, hi}}};
}

TEST(LinfBoxDistance, ZeroInsidePositiveOutside) {
  Region r = box2(0.2, 0.4);
  const double inside[] = {0.3, 0.3};
  const double edge[] = {0.4, 0.2};
  const double outside[] = {0.5, 0.3};
  EXPECT_EQ(linf_box_distance(inside, r), 0.0);
  EXPECT_EQ(linf_box_distance(edge, r), 0.0);  // closed intervals
  EXPECT_DOUBLE_EQ(linf_box_distance(outside, r), 0.1);
  const double corner[] = {0.5, 0.55};
  EXPECT_DOUBLE_EQ(linf_box_distance(corner, r), 0.15);
}

// Property: hashing a uniform sample and grouping by a short prefix
// spreads points across all cuboids of that depth (no systematic holes).
TEST(LphHash, UniformSampleCoversShallowCuboids) {
  Boundary b = unit_box(2);
  Rng rng(6);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 4000; ++i) {
    IndexPoint p{rng.uniform(), rng.uniform()};
    Id key = lph_hash(p, b);
    counts[key >> 60] += 1;  // depth-4 cuboid index
  }
  for (int c : counts) EXPECT_GT(c, 100);
}

// Property: keys of points inside a cuboid's region hash into the
// cuboid's key span.
TEST(LphHash, RegionPointsHashIntoSpan) {
  Boundary b = unit_box(2);
  Rng rng(7);
  for (int t = 0; t < 100; ++t) {
    int len = 1 + static_cast<int>(rng.below(10));
    Id key = prefix(rng.next(), len);
    Prefix p{key, len};
    Region cub = cuboid_region(p, b);
    KeySpan span = prefix_span(key, len);
    for (int i = 0; i < 10; ++i) {
      IndexPoint pt;
      for (int d = 0; d < 2; ++d) {
        const Interval& iv = cub.ranges[static_cast<std::size_t>(d)];
        // Sample strictly inside to avoid the closed-plane convention.
        pt.push_back(iv.lo + (iv.hi - iv.lo) * rng.uniform(0.01, 0.99));
      }
      Id h = lph_hash(pt, b);
      EXPECT_GE(h, span.lo);
      EXPECT_LE(h, span.hi);
    }
  }
}

}  // namespace
}  // namespace lmk
