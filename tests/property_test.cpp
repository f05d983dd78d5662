// Cross-cutting property tests:
//  * rotation invariance — query results must be identical with and
//    without the space-mapping rotation (rotation only relocates data);
//  * tree/naive equivalence — both routers return the same exact sets;
//  * non-uniform boundaries — per-dimension ranges of different widths
//    keep hash/cuboid/routing consistent;
//  * placement/ownership invariants under randomized workloads.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "core/index_platform.hpp"

namespace lmk {
namespace {

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed, IndexPlatform::Options popts =
                                                   IndexPlatform::Options{})
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring, popts);
  }

  std::set<std::uint64_t> query(std::uint32_t scheme, const Region& region) {
    std::optional<IndexPlatform::QueryOutcome> outcome;
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.0),
                           ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
    sim.run();
    EXPECT_TRUE(outcome.has_value() && outcome->complete);
    return {outcome->results.begin(), outcome->results.end()};
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

Boundary random_boundary(std::size_t dims, Rng& rng) {
  Boundary b;
  for (std::size_t d = 0; d < dims; ++d) {
    double lo = rng.uniform(-50, 50);
    double hi = lo + rng.uniform(0.5, 200);
    b.push_back(Interval{lo, hi});
  }
  return b;
}

Region random_region(const Boundary& b, Rng& rng) {
  Region r;
  for (const Interval& iv : b) {
    double a = rng.uniform(iv.lo, iv.hi);
    double c = rng.uniform(iv.lo, iv.hi);
    if (a > c) std::swap(a, c);
    r.ranges.push_back(Interval{a, c});
  }
  return r;
}

TEST(Property, RotationDoesNotChangeResults) {
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    Stack s(48, seed);
    Rng rng(seed + 1);
    Boundary boundary = random_boundary(3, rng);
    auto plain = s.platform->register_scheme("plain", boundary, false);
    auto rotated = s.platform->register_scheme("rotated", boundary, true);
    ASSERT_NE(s.platform->scheme(rotated).rotation, 0u);
    std::vector<IndexPoint> pts;
    for (int i = 0; i < 300; ++i) {
      IndexPoint p;
      for (const Interval& iv : boundary) {
        p.push_back(rng.uniform(iv.lo, iv.hi));
      }
      s.platform->insert(plain, static_cast<std::uint64_t>(i), p);
      s.platform->insert(rotated, static_cast<std::uint64_t>(i), p);
      pts.push_back(std::move(p));
    }
    for (int t = 0; t < 15; ++t) {
      Region r = random_region(boundary, rng);
      EXPECT_EQ(s.query(plain, r), s.query(rotated, r))
          << "seed " << seed << " trial " << t;
    }
  }
}

TEST(Property, TreeAndNaiveReturnIdenticalSets) {
  Rng rng(55);
  Boundary boundary = random_boundary(2, rng);
  IndexPlatform::Options tree_opts;
  IndexPlatform::Options naive_opts;
  naive_opts.routing = RoutingMode::kNaive;
  naive_opts.naive_split_depth = 7;
  Stack tree(32, 7, tree_opts);
  Stack naive(32, 7, naive_opts);
  auto st = tree.platform->register_scheme("t", boundary, false);
  auto sn = naive.platform->register_scheme("n", boundary, false);
  for (int i = 0; i < 400; ++i) {
    IndexPoint p;
    for (const Interval& iv : boundary) p.push_back(rng.uniform(iv.lo, iv.hi));
    tree.platform->insert(st, static_cast<std::uint64_t>(i), p);
    naive.platform->insert(sn, static_cast<std::uint64_t>(i), p);
  }
  for (int t = 0; t < 20; ++t) {
    Region r = random_region(boundary, rng);
    EXPECT_EQ(tree.query(st, r), naive.query(sn, r)) << "trial " << t;
  }
}

TEST(Property, NonUniformBoundariesStayExact) {
  Rng rng(77);
  for (int round = 0; round < 4; ++round) {
    std::size_t dims = 1 + rng.below(4);
    Boundary boundary = random_boundary(dims, rng);
    Stack s(24, 500 + static_cast<std::uint64_t>(round));
    auto scheme = s.platform->register_scheme("nu", boundary, round % 2 == 1);
    std::vector<IndexPoint> pts;
    for (int i = 0; i < 250; ++i) {
      IndexPoint p;
      for (const Interval& iv : boundary) {
        p.push_back(rng.uniform(iv.lo, iv.hi));
      }
      s.platform->insert(scheme, static_cast<std::uint64_t>(i), p);
      pts.push_back(std::move(p));
    }
    s.platform->check_placement_invariant();
    for (int t = 0; t < 10; ++t) {
      Region r = random_region(boundary, rng);
      std::set<std::uint64_t> expected;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        bool inside = true;
        for (std::size_t d = 0; d < dims; ++d) {
          if (pts[i][d] < r.ranges[d].lo || pts[i][d] > r.ranges[d].hi) {
            inside = false;
            break;
          }
        }
        if (inside) expected.insert(i);
      }
      EXPECT_EQ(s.query(scheme, r), expected)
          << "round " << round << " trial " << t;
    }
  }
}

TEST(Property, HashStaysInCuboidForNonUniformBoundaries) {
  Rng rng(88);
  for (int t = 0; t < 200; ++t) {
    std::size_t dims = 1 + rng.below(5);
    Boundary b = random_boundary(dims, rng);
    IndexPoint p;
    for (const Interval& iv : b) p.push_back(rng.uniform(iv.lo, iv.hi));
    Id key = lph_hash(p, b);
    for (int len : {3, 17, 39}) {
      Region cub = cuboid_region(Prefix{prefix(key, len), len}, b);
      for (std::size_t d = 0; d < dims; ++d) {
        EXPECT_LE(cub.ranges[d].lo - 1e-9, p[d]);
        EXPECT_GE(cub.ranges[d].hi + 1e-9, p[d]);
      }
    }
  }
}

TEST(Property, QuerySplitPartitionsRegionExactly) {
  // The two children of a straddle split tile the parent region: their
  // union is the parent and they overlap only on the plane.
  Rng rng(99);
  SchemeRouting sch;
  sch.boundary = random_boundary(3, rng);
  sch.query_message_bytes = query_message_size(3);
  for (int t = 0; t < 100; ++t) {
    RangeQuery q;
    Region r = random_region(sch.boundary, rng);
    make_query(sch, 1, 0, r, IndexPoint(3, 0.0), &q);
    if (q.prefix.length == kIdBits) continue;
    QuerySplitPlan plan = plan_query_split(q, q.prefix.length + 1);
    if (plan.children != 2) continue;
    auto [upper, lower] = split_query(q, plan);
    int dim = -1;
    double mid =
        split_plane(q.prefix.key, q.prefix.length + 1, sch.boundary, &dim);
    auto sd = static_cast<std::size_t>(dim);
    EXPECT_DOUBLE_EQ(upper.region.ranges[sd].lo, mid);
    EXPECT_DOUBLE_EQ(lower.region.ranges[sd].hi, mid);
    EXPECT_DOUBLE_EQ(upper.region.ranges[sd].hi, q.region.ranges[sd].hi);
    EXPECT_DOUBLE_EQ(lower.region.ranges[sd].lo, q.region.ranges[sd].lo);
    for (std::size_t d = 0; d < 3; ++d) {
      if (d == sd) continue;
      EXPECT_DOUBLE_EQ(upper.region.ranges[d].lo, q.region.ranges[d].lo);
      EXPECT_DOUBLE_EQ(lower.region.ranges[d].hi, q.region.ranges[d].hi);
    }
  }
}

TEST(Property, PlacementInvariantUnderRandomOps) {
  Rng rng(111);
  Stack s(20, 9);
  Boundary b = random_boundary(2, rng);
  auto scheme = s.platform->register_scheme("ops", b, true);
  std::vector<std::pair<std::uint64_t, IndexPoint>> live;
  std::uint64_t next_id = 0;
  for (int step = 0; step < 500; ++step) {
    double u = rng.uniform();
    if (u < 0.6 || live.empty()) {
      IndexPoint p;
      for (const Interval& iv : b) p.push_back(rng.uniform(iv.lo, iv.hi));
      s.platform->insert(scheme, next_id, p);
      live.emplace_back(next_id, std::move(p));
      ++next_id;
    } else {
      std::size_t victim = rng.below(live.size());
      EXPECT_TRUE(s.platform->remove(scheme, live[victim].first,
                                     live[victim].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (step % 100 == 99) s.platform->check_placement_invariant();
  }
  EXPECT_EQ(s.platform->scheme_entries(scheme), live.size());
}

}  // namespace
}  // namespace lmk
