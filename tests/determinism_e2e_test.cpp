// Repeat-run determinism regression: the whole experimental claim of
// the reproduction rests on bit-identical, seed-reproducible simulation
// runs (DESIGN.md "Correctness tooling"). This test drives a small but
// complete scenario — protocol joins on a latency topology, bulk and
// networked indexing, tree- and naive-routed range queries in both
// reply modes interleaved with networked inserts and removes (so local
// stores are probed stale and rebuilt on a deferred schedule) — twice
// from the same seed in fresh processes' worth of state, and asserts
// every per-query outcome field (hops, result sets, timings, message,
// scan and byte counts, per-node tallies) is identical and that no
// query is left in flight after any drain. Any wall-clock read,
// unseeded draw, or unordered-container iteration order leaking into a
// result-affecting path shows up here as a diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/index_platform.hpp"

namespace lmk {
namespace {

struct QueryTrace {
  int hops = 0;
  SimTime response_time = 0;
  SimTime max_latency = 0;
  std::uint64_t query_messages = 0;
  std::uint64_t query_bytes = 0;
  std::uint64_t result_messages = 0;
  std::uint64_t result_bytes = 0;
  int index_nodes = 0;
  int subqueries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t max_node_candidates = 0;
  std::uint64_t scanned = 0;
  int lost_subqueries = 0;
  bool complete = false;
  std::vector<std::uint64_t> results;  // merged ids, arrival order

  bool operator==(const QueryTrace&) const = default;
};

constexpr int kQueries = 60;
constexpr std::uint64_t kNodes = 28;

struct RunTrace {
  std::vector<QueryTrace> queries;
  std::vector<int> insert_hops;
  std::vector<int> mutation_hops;  // interleaved inserts and removes
  std::vector<bool> removed;
  std::uint64_t rebuilds = 0;
  std::uint64_t events = 0;
  std::uint64_t total_bytes = 0;

  bool operator==(const RunTrace&) const = default;
};

RunTrace run_scenario(std::uint64_t seed, RoutingMode routing) {
  RunTrace trace;
  Rng rng(seed);

  DelaySpaceModel::Options topo;
  topo.hosts = 28;
  topo.seed = rng.fork().next();
  DelaySpaceModel topology(topo);
  Simulator sim;
  Network net(sim, topology);

  Ring::Options ropts;
  ropts.seed = rng.fork().next();
  Ring ring(net, ropts);
  for (HostId h = 0; h < 24; ++h) ring.create_node(h);
  ring.bootstrap();

  IndexPlatform::Options popts;
  popts.top_k = 5;
  popts.routing = routing;
  IndexPlatform platform(ring, popts);
  auto scheme =
      platform.register_scheme("det-e2e", uniform_boundary(3, 0.0, 1.0),
                               /*rotate=*/true);

  // Bulk-load a clustered-ish point set.
  Rng data_rng = rng.fork();
  std::vector<IndexPoint> points;
  points.reserve(300);
  for (int i = 0; i < 300; ++i) {
    IndexPoint p;
    for (int d = 0; d < 3; ++d) p.push_back(data_rng.uniform());
    points.push_back(std::move(p));
  }
  std::vector<double> rows;
  for (const IndexPoint& p : points) {
    rows.insert(rows.end(), p.begin(), p.end());
  }
  platform.bulk_insert_flat(scheme, rows, 3);

  // Four more nodes join through the Chord protocol while further
  // entries arrive through the network path.
  Rng join_rng = rng.fork();
  for (HostId h = 24; h < 28; ++h) {
    ChordNode& fresh = ring.create_node(h);
    auto nodes = ring.alive_nodes();
    ChordNode& gateway = *nodes[join_rng.below(nodes.size() - 1)];
    ring.protocol_join(fresh, gateway, nullptr);
    sim.run();
    EXPECT_EQ(platform.active_queries(), 0u);
  }
  ring.refresh_all_fingers();

  Rng insert_rng = rng.fork();
  for (int i = 0; i < 40; ++i) {
    IndexPoint p;
    for (int d = 0; d < 3; ++d) p.push_back(insert_rng.uniform());
    auto nodes = ring.alive_nodes();
    ChordNode& origin = *nodes[insert_rng.below(nodes.size())];
    platform.insert_via_network(
        origin, scheme, static_cast<std::uint64_t>(1000 + i), std::move(p),
        [&trace](int hops) { trace.insert_hops.push_back(hops); });
  }
  sim.run();
  EXPECT_EQ(platform.active_queries(), 0u);
  // Joins shift key ownership; pull every entry back to its owner (this
  // also exercises the deterministic store sweep in repair_replication)
  // before asserting placement.
  platform.repair_replication();
  platform.check_placement_invariant();

  // Range queries from random origins, alternating reply modes. Each is
  // followed by a networked insert and a removal of a bulk-loaded
  // object, so stores mutate after their first probe.
  Rng query_rng = rng.fork();
  Rng mutate_rng = rng.fork();
  trace.queries.resize(kQueries);
  for (int qi = 0; qi < kQueries; ++qi) {
    IndexPoint center;
    for (int d = 0; d < 3; ++d) center.push_back(query_rng.uniform());
    double radius = 0.05 + 0.15 * query_rng.uniform();
    auto nodes = ring.alive_nodes();
    ChordNode& origin = *nodes[query_rng.below(nodes.size())];
    ReplyMode mode = qi % 2 == 0 ? ReplyMode::kAllMatches : ReplyMode::kTopK;
    platform.range_query(
        origin, scheme, center, radius, mode,
        [&trace, qi](const IndexPlatform::QueryOutcome& o) {
          QueryTrace& q = trace.queries[static_cast<std::size_t>(qi)];
          q.hops = o.hops;
          q.response_time = o.response_time;
          q.max_latency = o.max_latency;
          q.query_messages = o.query_messages;
          q.query_bytes = o.query_bytes;
          q.result_messages = o.result_messages;
          q.result_bytes = o.result_bytes;
          q.index_nodes = o.index_nodes;
          q.subqueries = o.subqueries;
          q.candidates = o.candidates;
          q.max_node_candidates = o.max_node_candidates;
          q.scanned = o.scanned;
          q.lost_subqueries = o.lost_subqueries;
          q.complete = o.complete;
          q.results = o.results;
        });
    sim.run();
    EXPECT_EQ(platform.active_queries(), 0u);

    IndexPoint p;
    for (int d = 0; d < 3; ++d) p.push_back(mutate_rng.uniform());
    platform.insert_via_network(
        *nodes[mutate_rng.below(nodes.size())], scheme,
        static_cast<std::uint64_t>(2000 + qi), std::move(p),
        [&trace](int hops) { trace.mutation_hops.push_back(hops); });
    const std::size_t victim = mutate_rng.below(points.size());
    platform.remove_via_network(
        *nodes[mutate_rng.below(nodes.size())], scheme, victim,
        points[victim], [&trace](bool removed, int hops) {
          trace.removed.push_back(removed);
          trace.mutation_hops.push_back(hops);
        });
    sim.run();
    EXPECT_EQ(platform.active_queries(), 0u);
  }

  trace.rebuilds = platform.local_store_stats().rebuilds;
  trace.events = sim.events_executed();
  trace.total_bytes = net.total_traffic().bytes;
  return trace;
}

TEST(DeterminismE2E, TreeRoutingIsBitIdenticalAcrossRuns) {
  RunTrace a = run_scenario(0xfeedbeef, RoutingMode::kTree);
  RunTrace b = run_scenario(0xfeedbeef, RoutingMode::kTree);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].hops, b.queries[i].hops) << "query " << i;
    EXPECT_EQ(a.queries[i].results, b.queries[i].results) << "query " << i;
  }
  EXPECT_EQ(a, b);
}

TEST(DeterminismE2E, NaiveRoutingIsBitIdenticalAcrossRuns) {
  RunTrace a = run_scenario(0xc0ffee, RoutingMode::kNaive);
  RunTrace b = run_scenario(0xc0ffee, RoutingMode::kNaive);
  EXPECT_EQ(a, b);
}

TEST(DeterminismE2E, DifferentSeedsDiverge) {
  // Sanity check that the trace is sensitive at all — otherwise the
  // equality assertions above would vacuously pass.
  RunTrace a = run_scenario(1, RoutingMode::kTree);
  RunTrace b = run_scenario(2, RoutingMode::kTree);
  EXPECT_NE(a, b);
}

TEST(DeterminismE2E, QueriesReturnedSomething) {
  RunTrace a = run_scenario(0xfeedbeef, RoutingMode::kTree);
  std::size_t nonempty = 0;
  for (const QueryTrace& q : a.queries) {
    if (!q.results.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, a.queries.size() / 2);
  EXPECT_EQ(a.insert_hops.size(), 40u);
}

TEST(DeterminismE2E, MutationsReachStaleScansAndDeferredRebuilds) {
  RunTrace a = run_scenario(0xfeedbeef, RoutingMode::kTree);
  EXPECT_EQ(a.mutation_hops.size(), 2u * kQueries);
  EXPECT_GT(std::count(a.removed.begin(), a.removed.end(), true), 0);
  // Each of the kNodes stores builds eagerly at most once; every build
  // beyond that is a deferred rebuild, paid for by stale scans.
  EXPECT_GT(a.rebuilds, kNodes);
}

}  // namespace
}  // namespace lmk
