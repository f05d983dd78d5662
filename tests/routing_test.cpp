// Correctness tests for range-query resolving and routing (Algorithms
// 3-5) against a brute-force oracle: a range query must return exactly
// the stored entries whose index points lie in the region — over random
// overlays, dimensionalities, rotations, and both routing engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <span>

#include "balance/rotation.hpp"
#include "core/index_platform.hpp"
#include "routing/query.hpp"

namespace lmk {
namespace {

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed, IndexPlatform::Options popts)
      : topo(hosts, 15 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring, popts);
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

std::vector<IndexPoint> random_points(std::size_t n, std::size_t dims,
                                      Rng& rng) {
  std::vector<IndexPoint> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    IndexPoint p(dims);
    for (auto& v : p) v = rng.uniform();
    pts.push_back(std::move(p));
  }
  return pts;
}

Region random_region(std::size_t dims, double max_extent, Rng& rng) {
  Region r;
  for (std::size_t d = 0; d < dims; ++d) {
    double lo = rng.uniform();
    double hi = std::min(1.0, lo + rng.uniform() * max_extent);
    r.ranges.push_back(Interval{lo, hi});
  }
  return r;
}

std::set<std::uint64_t> brute_force(const std::vector<IndexPoint>& pts,
                                    const Region& region) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool inside = true;
    for (std::size_t d = 0; d < pts[i].size(); ++d) {
      if (pts[i][d] < region.ranges[d].lo || pts[i][d] > region.ranges[d].hi) {
        inside = false;
        break;
      }
    }
    if (inside) out.insert(i);
  }
  return out;
}

struct Params {
  std::size_t nodes;
  std::size_t dims;
  bool rotate;
  RoutingMode routing;
};

class RoutingOracle : public ::testing::TestWithParam<Params> {};

TEST_P(RoutingOracle, RangeQueriesReturnExactlyTheRegionContents) {
  const Params p = GetParam();
  IndexPlatform::Options popts;
  popts.routing = p.routing;
  popts.naive_split_depth = 8;
  Stack s(p.nodes, 11, popts);
  Rng rng(17);
  std::uint32_t scheme = s.platform->register_scheme(
      "oracle-idx", uniform_boundary(p.dims, 0, 1), p.rotate);
  auto pts = random_points(400, p.dims, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  s.platform->check_placement_invariant();
  auto nodes = s.ring->alive_nodes();
  for (int t = 0; t < 25; ++t) {
    Region region = random_region(p.dims, 0.5, rng);
    IndexPoint focus(p.dims, 0.5);
    std::set<std::uint64_t> expected = brute_force(pts, region);
    std::optional<IndexPlatform::QueryOutcome> outcome;
    ChordNode* origin = nodes[rng.below(nodes.size())];
    s.platform->region_query(*origin, scheme, region, focus,
                             ReplyMode::kAllMatches,
                             [&](const IndexPlatform::QueryOutcome& o) {
                               outcome = o;
                             });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value()) << "query never completed";
    EXPECT_TRUE(outcome->complete);
    EXPECT_EQ(outcome->lost_subqueries, 0);
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    EXPECT_EQ(got, expected) << "query " << t;
    EXPECT_EQ(outcome->results.size(), got.size()) << "duplicate results";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingOracle,
    ::testing::Values(Params{1, 2, false, RoutingMode::kTree},
                      Params{2, 2, false, RoutingMode::kTree},
                      Params{3, 1, false, RoutingMode::kTree},
                      Params{8, 2, false, RoutingMode::kTree},
                      Params{8, 2, true, RoutingMode::kTree},
                      Params{64, 3, false, RoutingMode::kTree},
                      Params{64, 3, true, RoutingMode::kTree},
                      Params{64, 5, false, RoutingMode::kTree},
                      Params{8, 2, false, RoutingMode::kNaive},
                      Params{64, 3, false, RoutingMode::kNaive},
                      Params{64, 3, true, RoutingMode::kNaive}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      const Params& p = param_info.param;
      std::string name = std::to_string(p.nodes) + "nodes_" +
                         std::to_string(p.dims) + "d";
      if (p.rotate) name += "_rot";
      name += p.routing == RoutingMode::kTree ? "_tree" : "_naive";
      return name;
    });

TEST(Routing, WholeSpaceQueryReachesEveryEntry) {
  IndexPlatform::Options popts;
  Stack s(32, 3, popts);
  Rng rng(5);
  std::uint32_t scheme =
      s.platform->register_scheme("full", uniform_boundary(2, 0, 1), false);
  auto pts = random_points(300, 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  Region all{{Interval{0, 1}, Interval{0, 1}}};
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->region_query(*s.ring->alive_nodes()[0], scheme, all,
                           IndexPoint{0.5, 0.5}, ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->results.size(), pts.size());
  // A whole-space query must touch every node: each owns part of the
  // key space and must answer (possibly with an empty reply) so the
  // querier can detect completion.
  EXPECT_EQ(outcome->index_nodes,
            static_cast<int>(s.ring->alive_count()));
}

TEST(Routing, RegionOutsideBoundarySnapsToEdgeEntries) {
  // Out-of-boundary objects are stored at the boundary point (§3.1), so
  // an out-of-boundary query must snap to the edge and still find them.
  IndexPlatform::Options popts;
  Stack s(8, 4, popts);
  std::uint32_t scheme =
      s.platform->register_scheme("oob", uniform_boundary(2, 0, 1), false);
  // An entry mapped beyond the boundary lands on the corner (1, 1).
  s.platform->insert(scheme, 77, IndexPoint{1.0, 1.0});
  s.platform->insert(scheme, 78, IndexPoint{0.2, 0.2});
  Region outside{{Interval{2, 3}, Interval{2, 3}}};
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->region_query(*s.ring->alive_nodes()[0], scheme, outside,
                           IndexPoint{2.5, 2.5}, ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->complete);
  ASSERT_EQ(outcome->results.size(), 1u);
  EXPECT_EQ(outcome->results[0], 77u);
}

TEST(Routing, PointQueryFindsExactPoint) {
  IndexPlatform::Options popts;
  Stack s(16, 6, popts);
  Rng rng(6);
  std::uint32_t scheme =
      s.platform->register_scheme("pt", uniform_boundary(3, 0, 1), false);
  auto pts = random_points(200, 3, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  for (int t = 0; t < 10; ++t) {
    std::size_t target = rng.below(pts.size());
    Region r;
    for (double v : pts[target]) r.ranges.push_back(Interval{v, v});
    std::optional<IndexPlatform::QueryOutcome> outcome;
    s.platform->region_query(*s.ring->alive_nodes()[0], scheme, r,
                             pts[target], ReplyMode::kAllMatches,
                             [&](const auto& o) { outcome = o; });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(std::count(outcome->results.begin(), outcome->results.end(),
                           target) == 1);
  }
}

TEST(Routing, TopKModeReturnsAtMostKPerNode) {
  IndexPlatform::Options popts;
  popts.top_k = 3;
  Stack s(4, 7, popts);
  Rng rng(7);
  std::uint32_t scheme =
      s.platform->register_scheme("topk", uniform_boundary(2, 0, 1), false);
  auto pts = random_points(500, 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  Region all{{Interval{0, 1}, Interval{0, 1}}};
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->region_query(*s.ring->alive_nodes()[0], scheme, all,
                           IndexPoint{0.5, 0.5}, ReplyMode::kTopK,
                           [&](const auto& o) { outcome = o; });
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  // Each reply carries at most top_k entries.
  EXPECT_LE(outcome->results.size(),
            static_cast<std::size_t>(outcome->result_messages) * 3);
  EXPECT_LT(outcome->results.size(), pts.size());
}

TEST(Routing, TopKRanksByIndexDistance) {
  IndexPlatform::Options popts;
  popts.top_k = 2;
  Stack s(1, 8, popts);  // single node: one reply with the global top-2
  std::uint32_t scheme =
      s.platform->register_scheme("rank", uniform_boundary(1, 0, 1), false);
  s.platform->insert(scheme, 0, IndexPoint{0.50});
  s.platform->insert(scheme, 1, IndexPoint{0.52});
  s.platform->insert(scheme, 2, IndexPoint{0.70});
  s.platform->insert(scheme, 3, IndexPoint{0.90});
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->range_query(*s.ring->alive_nodes()[0], scheme,
                          IndexPoint{0.51}, 0.45, ReplyMode::kTopK,
                          [&](const auto& o) { outcome = o; });
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  // Per-node top-k is per *solve* (the region may split into several
  // subqueries even on one node), so the platform returns a superset;
  // the two nearest entries must be in it, and each reply obeys the cap.
  EXPECT_TRUE(got.count(0) == 1 && got.count(1) == 1);
  EXPECT_LE(outcome->results.size(),
            static_cast<std::size_t>(outcome->result_messages) * 2);
}

TEST(Routing, BandwidthModelMatchesPaperFormula) {
  // k = 4 landmarks: query message = 20 + 4 + (2*2*4 + 8 + 1) = 49 bytes.
  EXPECT_EQ(query_message_size(4), 49u);
  // k = 10: 20 + 4 + (40 + 9) = 73.
  EXPECT_EQ(query_message_size(10), 73u);
  // Two subqueries batched, k = 10: 24 + 2*49 = 122.
  EXPECT_EQ(query_message_size(10, 2), 122u);

  IndexPlatform::Options popts;
  Stack s(8, 9, popts);
  std::uint32_t scheme =
      s.platform->register_scheme("bw", uniform_boundary(4, 0, 1), false);
  Rng rng(9);
  auto pts = random_points(100, 4, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->range_query(*s.ring->alive_nodes()[0], scheme,
                          IndexPoint(4, 0.5), 0.1, ReplyMode::kAllMatches,
                          [&](const auto& o) { outcome = o; });
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  // Query messages batch n subqueries each: size = 24 + n*49-25... each
  // message is 20 + 4 + n*(2*2*4 + 8 + 1) = 24 + 25n bytes, so the total
  // decomposes exactly into per-message headers plus subquery units.
  ASSERT_GE(outcome->query_bytes, outcome->query_messages * (24 + 25));
  std::uint64_t units =
      (outcome->query_bytes - outcome->query_messages * 24) / 25;
  EXPECT_EQ(outcome->query_bytes, outcome->query_messages * 24 + units * 25);
  EXPECT_GE(units, outcome->query_messages);
  // Result messages: 20-byte header + 6 bytes per entry.
  EXPECT_EQ(outcome->result_bytes,
            outcome->result_messages * 20u + 6u * outcome->results.size());
}

TEST(Routing, HopsBoundedByLogNPlusDepth) {
  IndexPlatform::Options popts;
  Stack s(128, 10, popts);
  Rng rng(10);
  std::uint32_t scheme =
      s.platform->register_scheme("hops", uniform_boundary(2, 0, 1), false);
  auto pts = random_points(500, 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  auto nodes = s.ring->alive_nodes();
  double worst = 0;
  for (int t = 0; t < 30; ++t) {
    Region region = random_region(2, 0.15, rng);
    std::optional<IndexPlatform::QueryOutcome> outcome;
    s.platform->region_query(*nodes[rng.below(nodes.size())], scheme, region,
                             IndexPoint{0.5, 0.5}, ReplyMode::kAllMatches,
                             [&](const auto& o) { outcome = o; });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value());
    worst = std::max(worst, static_cast<double>(outcome->hops));
  }
  // log2(128) = 7; surrogate chains add a few hops. Far below the 512
  // runaway limit.
  EXPECT_LE(worst, 40.0);
}

TEST(Routing, ConcurrentQueriesDoNotInterfere) {
  IndexPlatform::Options popts;
  Stack s(32, 12, popts);
  Rng rng(12);
  std::uint32_t scheme =
      s.platform->register_scheme("cc", uniform_boundary(2, 0, 1), false);
  auto pts = random_points(300, 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  auto nodes = s.ring->alive_nodes();
  // Inject 20 queries at once, all outstanding simultaneously.
  std::vector<Region> regions;
  std::vector<std::optional<IndexPlatform::QueryOutcome>> outcomes(20);
  for (int t = 0; t < 20; ++t) {
    regions.push_back(random_region(2, 0.3, rng));
    s.platform->region_query(*nodes[rng.below(nodes.size())], scheme,
                             regions.back(), IndexPoint{0.5, 0.5},
                             ReplyMode::kAllMatches,
                             [&outcomes, t](const auto& o) {
                               outcomes[static_cast<std::size_t>(t)] = o;
                             });
  }
  s.sim.run();
  EXPECT_EQ(s.platform->active_queries(), 0u);
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(outcomes[static_cast<std::size_t>(t)].has_value());
    std::set<std::uint64_t> got(
        outcomes[static_cast<std::size_t>(t)]->results.begin(),
        outcomes[static_cast<std::size_t>(t)]->results.end());
    EXPECT_EQ(got, brute_force(pts, regions[static_cast<std::size_t>(t)]));
  }
}

TEST(Routing, MultipleSchemesCoexistIndependently) {
  IndexPlatform::Options popts;
  Stack s(16, 13, popts);
  Rng rng(13);
  std::uint32_t s2d = s.platform->register_scheme(
      "two-d", uniform_boundary(2, 0, 1), true);
  std::uint32_t s3d = s.platform->register_scheme(
      "three-d", uniform_boundary(3, 0, 10), true);
  auto pts2 = random_points(150, 2, rng);
  std::vector<IndexPoint> pts3 = random_points(150, 3, rng);
  for (auto& p : pts3) {
    for (auto& v : p) v *= 10;
  }
  for (std::size_t i = 0; i < pts2.size(); ++i) {
    s.platform->insert(s2d, i, pts2[i]);
  }
  for (std::size_t i = 0; i < pts3.size(); ++i) {
    s.platform->insert(s3d, i, pts3[i]);
  }
  // Query each scheme; results must come only from its own entries.
  Region r2 = random_region(2, 0.4, rng);
  std::optional<IndexPlatform::QueryOutcome> o2;
  s.platform->region_query(*s.ring->alive_nodes()[0], s2d, r2,
                           IndexPoint{0.5, 0.5}, ReplyMode::kAllMatches,
                           [&](const auto& o) { o2 = o; });
  s.sim.run();
  ASSERT_TRUE(o2.has_value());
  std::set<std::uint64_t> got2(o2->results.begin(), o2->results.end());
  EXPECT_EQ(got2, brute_force(pts2, r2));

  Region r3{{Interval{0, 10}, Interval{0, 10}, Interval{0, 10}}};
  std::optional<IndexPlatform::QueryOutcome> o3;
  s.platform->region_query(*s.ring->alive_nodes()[0], s3d, r3,
                           IndexPoint(3, 5.0), ReplyMode::kAllMatches,
                           [&](const auto& o) { o3 = o; });
  s.sim.run();
  ASSERT_TRUE(o3.has_value());
  EXPECT_EQ(o3->results.size(), pts3.size());
}

TEST(Routing, InsertViaNetworkPlacesAtOwner) {
  IndexPlatform::Options popts;
  Stack s(32, 14, popts);
  Rng rng(14);
  std::uint32_t scheme =
      s.platform->register_scheme("net-ins", uniform_boundary(2, 0, 1), false);
  auto pts = random_points(50, 2, rng);
  auto nodes = s.ring->alive_nodes();
  int stored = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert_via_network(*nodes[rng.below(nodes.size())], scheme, i,
                                   pts[i], [&](int hops) {
                                     EXPECT_GE(hops, 0);
                                     ++stored;
                                   });
  }
  s.sim.run();
  EXPECT_EQ(stored, 50);
  s.platform->check_placement_invariant();
  EXPECT_EQ(s.platform->total_entries(), 50u);
}

TEST(Routing, Algorithm5SpillRegressionPaperListingWouldMissThis) {
  // Regression pin for the documented pseudocode repair (router.hpp):
  // the paper's Algorithm 5 extends the query prefix along me.id (lines
  // 10-11) without narrowing the region. Construct the exact spill:
  //
  //  * 2-D index space, nodes with ids 110..., 111..., 1111...1;
  //  * a whole-space query arrives at the surrogate A (id 110...);
  //  * entry e at (0.9, 0.2) hashes to cuboid "10" -> stored at A;
  //  * the literal listing jumps A's prefix to 110 and splits only at
  //    the third plane, shipping the region piece dim0 > 0.75 (which
  //    contains e) to the "111" owner B, where e is not stored -> miss.
  //
  // The level-by-level refinement must solve the "10" piece locally at
  // A and return e.
  Simulator sim;
  ConstantLatencyModel topo(3, 10 * kMillisecond);
  Network net(sim, topo);
  Ring::Options ropts;
  Ring ring(net, ropts);
  ChordNode& a = ring.create_node_with_id(0, Id{0b110} << 61);
  ChordNode& b = ring.create_node_with_id(1, Id{0b111} << 61);
  ring.create_node_with_id(2, ~Id{0});
  ring.bootstrap();
  IndexPlatform platform(ring);
  auto scheme =
      platform.register_scheme("alg5", uniform_boundary(2, 0, 1), false);
  platform.insert(scheme, 7, IndexPoint{0.9, 0.2});  // cuboid "10"
  ASSERT_EQ(platform.store(a, scheme).size(), 1u)
      << "precondition: e must live on the 110... node";
  // Also one entry genuinely in the 111 cuboid (it lands past B's id,
  // on the last node).
  platform.insert(scheme, 8, IndexPoint{0.9, 0.9});
  ASSERT_TRUE(platform.store(a, scheme).size() == 1u);

  std::optional<IndexPlatform::QueryOutcome> outcome;
  platform.region_query(b, scheme,
                        Region{{Interval{0, 1}, Interval{0, 1}}},
                        IndexPoint{0.5, 0.5}, ReplyMode::kAllMatches,
                        [&](const auto& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_EQ(got, (std::set<std::uint64_t>{7, 8}));
}

TEST(Routing, EpisodeHandsEachNodeItsLocalPiecesInOneCall) {
  // Surrogate refinement solves a message's covered child cuboids at
  // the node it reached; the router hands them over in one call per
  // routing episode. Each call's pieces belong to the running query and
  // hold only keys the solving node owns, and a query's pieces tile its
  // region: a point off the split planes lies in exactly one of them.
  struct Call {
    ChordNode* node;
    std::vector<RangeQuery> pieces;
  };
  // An odd multiple of 2^-53 lies on no split plane of the unit box: a
  // plane d divisions deep in one dimension sits on a multiple of 2^-d,
  // and no dimension is split more than 22 times here.
  auto off_plane = [](double v) {
    return (std::floor(v * 0x1p52) * 2 + 1) * 0x1p-53;
  };
  for (const std::size_t nodes : {8u, 64u}) {
    for (const std::size_t dims : {3u, 10u}) {
      for (const bool rotate : {false, true}) {
        SCOPED_TRACE(std::to_string(nodes) + " nodes, " +
                     std::to_string(dims) + " dims" +
                     (rotate ? ", rotated" : ""));
        Simulator sim;
        ConstantLatencyModel topo(nodes, 10 * kMillisecond);
        Network net(sim, topo);
        Ring::Options ropts;
        ropts.seed = 31 + nodes + dims;
        Ring ring(net, ropts);
        for (HostId h = 0; h < nodes; ++h) ring.create_node(h);
        ring.bootstrap();
        SchemeRouting sch;
        sch.boundary = uniform_boundary(dims, 0, 1);
        sch.rotation = rotate ? rotation_offset("episode") : 0;
        sch.query_message_bytes = query_message_size(dims);
        std::vector<Call> calls;
        std::int64_t outstanding = 0;
        QueryRouter router(
            ring,
            [&](std::span<const RangeQuery> pieces, ChordNode& node) {
              calls.push_back({&node, {pieces.begin(), pieces.end()}});
              outstanding -= static_cast<std::int64_t>(pieces.size());
            },
            [&](std::uint64_t, int delta) { outstanding += delta; });
        const auto ring_nodes = ring.alive_nodes();
        Rng rng(41 + nodes + dims);
        std::size_t total_calls = 0;
        std::size_t total_pieces = 0;
        for (std::uint64_t qid = 1; qid <= 6; ++qid) {
          Region region;
          for (std::size_t d = 0; d < dims; ++d) {
            const double lo = rng.uniform(0, 0.5);
            region.ranges.push_back(Interval{lo, lo + rng.uniform(0.2, 0.5)});
          }
          // Half the points drawn inside the region, half anywhere.
          std::vector<IndexPoint> pts(600, IndexPoint(dims));
          for (std::size_t i = 0; i < pts.size(); ++i) {
            for (std::size_t d = 0; d < dims; ++d) {
              const Interval& r = region.ranges[d];
              pts[i][d] = off_plane(i % 2 == 0 ? rng.uniform(r.lo, r.hi)
                                               : rng.uniform());
            }
          }
          RangeQuery q;
          make_query(sch, qid, 0, region, IndexPoint(dims, 0.5), &q);
          calls.clear();
          outstanding = 1;
          router.start(*ring_nodes[rng.below(ring_nodes.size())],
                       std::move(q));
          sim.run();
          EXPECT_EQ(outstanding, 0) << "query " << qid;
          std::vector<int> cover(pts.size(), 0);
          for (const Call& c : calls) {
            ASSERT_FALSE(c.pieces.empty());
            total_pieces += c.pieces.size();
            for (const RangeQuery& piece : c.pieces) {
              EXPECT_EQ(piece.qid, qid);
              for (std::size_t i = 0; i < pts.size(); ++i) {
                if (linf_box_distance(pts[i], piece.region) > 0.0) continue;
                ++cover[i];
                EXPECT_TRUE(c.node->owns(lph_hash(pts[i], sch.boundary) +
                                         sch.rotation))
                    << "query " << qid << " point " << i;
              }
            }
          }
          total_calls += calls.size();
          int inside = 0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            const bool in = linf_box_distance(pts[i], region) <= 0.0;
            inside += in ? 1 : 0;
            EXPECT_EQ(cover[i], in ? 1 : 0) << "query " << qid << " point "
                                            << i;
          }
          EXPECT_GE(inside, 300) << "query " << qid;
        }
        if (nodes == 64 && dims == 10) {
          EXPECT_LT(total_calls, total_pieces);
        }
      }
    }
  }
}

TEST(Routing, NaivePointQueryIsAnsweredByItsOwnerAlone) {
  // A point query's prefix is a whole leaf (64 bits), so its key span
  // is its key alone: the naive router delivers it to the key's owner,
  // which solves it and walks no further along the ring.
  IndexPlatform::Options popts;
  popts.routing = RoutingMode::kNaive;
  popts.naive_split_depth = 8;
  Stack s(64, 15, popts);
  Rng rng(15);
  std::uint32_t scheme = s.platform->register_scheme(
      "naive-pt", uniform_boundary(3, 0, 1), false);
  auto pts = random_points(200, 3, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.platform->insert(scheme, i, pts[i]);
  }
  auto nodes = s.ring->alive_nodes();
  for (int t = 0; t < 10; ++t) {
    std::size_t target = rng.below(pts.size());
    Region r;
    for (double v : pts[target]) r.ranges.push_back(Interval{v, v});
    std::optional<IndexPlatform::QueryOutcome> outcome;
    s.platform->region_query(*nodes[rng.below(nodes.size())], scheme, r,
                             pts[target], ReplyMode::kAllMatches,
                             [&](const auto& o) { outcome = o; });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->results, std::vector<std::uint64_t>{target});
    EXPECT_EQ(outcome->subqueries, 1) << "query " << t;
    EXPECT_EQ(outcome->index_nodes, 1) << "query " << t;
  }
}

// QuerySplit unit coverage (Algorithm 4).
TEST(QuerySplit, StraddleSplitsRegionAtPlane) {
  SchemeRouting sch;
  sch.boundary = uniform_boundary(2, 0, 1);
  sch.query_message_bytes = query_message_size(2);
  RangeQuery q;
  make_query(sch, 1, 0, Region{{Interval{0.4, 0.8}, Interval{0.2, 0.3}}},
             IndexPoint{0.5, 0.25}, &q);
  ASSERT_EQ(q.prefix.length, 0);  // straddles first plane
  QuerySplitPlan plan = plan_query_split(q, 1);
  ASSERT_EQ(plan.children, 2);
  // Upper child first (paper order).
  auto [upper, lower] = split_query(q, plan);
  EXPECT_EQ(get_bit(upper.prefix.key, 1), 1);
  EXPECT_DOUBLE_EQ(upper.region.ranges[0].lo, 0.5);
  EXPECT_DOUBLE_EQ(upper.region.ranges[0].hi, 0.8);
  EXPECT_EQ(get_bit(lower.prefix.key, 1), 0);
  EXPECT_DOUBLE_EQ(lower.region.ranges[0].hi, 0.5);
  // Dim 1 untouched by a dim-0 split.
  EXPECT_DOUBLE_EQ(upper.region.ranges[1].lo, 0.2);
}

TEST(QuerySplit, OneSidedDescends) {
  SchemeRouting sch;
  sch.boundary = uniform_boundary(1, 0, 1);
  sch.query_message_bytes = query_message_size(1);
  RangeQuery q;
  make_query(sch, 1, 0, Region{{Interval{0.6, 0.7}}}, IndexPoint{0.65},
             &q);
  // Enclosing prefix: [0.6,0.7] descends "1" then "10", then straddles
  // the 0.625 plane.
  EXPECT_EQ(q.prefix.length, 2);
  // Manually rebuild a shallow query to exercise the one-sided cases.
  RangeQuery shallow = q;
  shallow.prefix = Prefix{0, 0};
  QuerySplitPlan plan = plan_query_split(shallow, 1);
  ASSERT_EQ(plan.children, 1);
  descend_query(shallow, plan);
  EXPECT_EQ(shallow.prefix.length, 1);
  EXPECT_EQ(get_bit(shallow.prefix.key, 1), 1);
  EXPECT_DOUBLE_EQ(shallow.region.ranges[0].lo, 0.6);  // region unchanged
}

}  // namespace
}  // namespace lmk
