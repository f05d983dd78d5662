// Platform-level semantics: dynamic updates (insert/remove, bulk moves)
// checked against a brute-force oracle, scheme lifecycle (clear,
// boundary update), reply batching, ranking behaviour, the per-node
// candidate tally, and the message byte model under batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/index_platform.hpp"

namespace lmk {
namespace {

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 12 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  std::optional<IndexPlatform::QueryOutcome> query_all(std::uint32_t scheme,
                                                       Region region) {
    std::optional<IndexPlatform::QueryOutcome> outcome;
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.5),
                           ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
    sim.run();
    return outcome;
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

TEST(PlatformUpdates, RemoveDeletesExactlyOneEntry) {
  Stack s(16, 1);
  auto scheme = s.platform->register_scheme("rm", uniform_boundary(2, 0, 1),
                                            false);
  s.platform->insert(scheme, 1, IndexPoint{0.3, 0.3});
  s.platform->insert(scheme, 2, IndexPoint{0.3, 0.3});
  s.platform->insert(scheme, 3, IndexPoint{0.8, 0.8});
  EXPECT_EQ(s.platform->scheme_entries(scheme), 3u);
  EXPECT_TRUE(s.platform->remove(scheme, 2, IndexPoint{0.3, 0.3}));
  EXPECT_EQ(s.platform->scheme_entries(scheme), 2u);
  // Removing again (or with a wrong point) fails without side effects.
  EXPECT_FALSE(s.platform->remove(scheme, 2, IndexPoint{0.3, 0.3}));
  EXPECT_FALSE(s.platform->remove(scheme, 1, IndexPoint{0.9, 0.9}));
  EXPECT_EQ(s.platform->scheme_entries(scheme), 2u);
  // The removed object no longer appears in query results.
  auto outcome = s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_EQ(got, (std::set<std::uint64_t>{1, 3}));
}

TEST(PlatformUpdates, RemoveViaNetworkRoutesToOwner) {
  Stack s(32, 2);
  auto scheme = s.platform->register_scheme("rm-net",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(3);
  std::vector<IndexPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(IndexPoint{rng.uniform()});
    s.platform->insert(scheme, static_cast<std::uint64_t>(i), pts.back());
  }
  int removed_count = 0;
  auto nodes = s.ring->alive_nodes();
  for (int i = 0; i < 40; i += 2) {
    s.platform->remove_via_network(
        *nodes[rng.below(nodes.size())], scheme,
        static_cast<std::uint64_t>(i), pts[static_cast<std::size_t>(i)],
        [&](bool removed, int hops) {
          EXPECT_TRUE(removed);
          EXPECT_GE(hops, 0);
          ++removed_count;
        });
  }
  s.sim.run();
  EXPECT_EQ(removed_count, 20);
  EXPECT_EQ(s.platform->scheme_entries(scheme), 20u);
  s.platform->check_placement_invariant();
}

TEST(PlatformUpdates, InterleavedInsertRemoveQueryStaysExact) {
  Stack s(16, 4);
  auto scheme = s.platform->register_scheme("mix", uniform_boundary(2, 0, 1),
                                            false);
  Rng rng(5);
  std::vector<IndexPoint> pts;
  std::set<std::uint64_t> live;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 50; ++i) {
      auto id = static_cast<std::uint64_t>(pts.size());
      pts.push_back(IndexPoint{rng.uniform(), rng.uniform()});
      s.platform->insert(scheme, id, pts.back());
      live.insert(id);
    }
    // Remove a third of the live set.
    std::vector<std::uint64_t> victims(live.begin(), live.end());
    for (std::size_t i = 0; i < victims.size(); i += 3) {
      ASSERT_TRUE(s.platform->remove(
          scheme, victims[i], pts[static_cast<std::size_t>(victims[i])]));
      live.erase(victims[i]);
    }
    auto outcome =
        s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
    ASSERT_TRUE(outcome.has_value());
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    EXPECT_EQ(got, live) << "round " << round;
  }
}

/// Randomized insert/remove/migration trace with interleaved queries
/// against a rotated scheme: every query's result set must equal the
/// brute-force oracle id-for-id through single inserts and removes,
/// drain_all + transfer_owned and repair_replication, whether the local
/// stores answer by stale-row scans or from rebuilt order indices.
TEST(PlatformUpdates, RandomizedMutationTraceMatchesOracle) {
  Stack s(24, 7);
  // rotate=true: queries live in index space while placement is
  // rotated — the invalidation plumbing must respect both.
  auto scheme =
      s.platform->register_scheme("trace", uniform_boundary(2, 0, 1), true);

  Rng rng(99);
  std::map<std::uint64_t, IndexPoint> shadow;
  std::uint64_t next_id = 0;
  auto random_point = [&]() { return IndexPoint{rng.uniform(), rng.uniform()}; };
  auto random_region = [&]() {
    const double cx = rng.uniform();
    const double cy = rng.uniform();
    const double r = 0.05 + 0.25 * rng.uniform();
    Region reg{{Interval{std::max(0.0, cx - r), std::min(1.0, cx + r)},
                Interval{std::max(0.0, cy - r), std::min(1.0, cy + r)}}};
    return reg;
  };
  auto check_query = [&](const Region& reg) {
    auto outcome = s.query_all(scheme, reg);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->complete);
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    std::set<std::uint64_t> want;
    for (const auto& [id, pt] : shadow) {
      bool inside = true;
      for (std::size_t d = 0; d < 2; ++d) {
        if (pt[d] < reg.ranges[d].lo || pt[d] > reg.ranges[d].hi) {
          inside = false;
          break;
        }
      }
      if (inside) want.insert(id);
    }
    ASSERT_EQ(got, want);
  };

  for (int i = 0; i < 60; ++i) {
    shadow.emplace(next_id, random_point());
    s.platform->insert(scheme, next_id, shadow.at(next_id));
    ++next_id;
  }
  // A few fixed regions re-queried every round: their repeated probes
  // pay for index rebuilds (see the check at the end).
  std::vector<Region> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(random_region());

  for (int round = 0; round < 12; ++round) {
    // Mutate: inserts, removes, and occasionally a bulk move.
    for (int i = 0; i < 5; ++i) {
      shadow.emplace(next_id, random_point());
      s.platform->insert(scheme, next_id, shadow.at(next_id));
      ++next_id;
    }
    if (!shadow.empty() && round % 2 == 0) {
      auto victim = shadow.begin();
      std::advance(victim, static_cast<long>(rng.below(shadow.size())));
      ASSERT_TRUE(s.platform->remove(scheme, victim->first, victim->second));
      shadow.erase(victim);
    }
    if (round % 4 == 3) {
      // Migration-shaped bulk moves, each followed by queries: a node
      // departs gracefully (drain_all onto its successor), then rejoins
      // at the same identifier and pulls back what it owns
      // (transfer_owned). The queries in between probe the successor
      // after it took the drained rows, so a drain that skipped its
      // invalidation answers from order indices that miss them.
      auto nodes = s.ring->alive_nodes();
      ChordNode* a = nodes[rng.below(nodes.size())];
      ChordNode* succ = s.ring->oracle_successor(a->id() + 1);
      const Id id = a->id();
      s.platform->drain_all(*a, *succ);
      s.ring->leave(*a);
      s.ring->refresh_all_fingers();
      s.platform->check_placement_invariant();
      for (const Region& reg : hot) check_query(reg);
      s.ring->rejoin(*a, id);
      s.ring->refresh_all_fingers();
      s.platform->transfer_owned(*succ, *a);
      s.platform->check_placement_invariant();
    }
    if (round == 7) {
      s.platform->repair_replication();  // global rebuild of every store
    }
    for (const Region& reg : hot) check_query(reg);
    check_query(random_region());
  }
  // More builds than stores: rebuilds deferred past writes ran, so the
  // oracle also checked answers from rebuilt indices.
  EXPECT_GT(s.platform->local_store_stats().rebuilds,
            s.ring->alive_nodes().size())
      << "trace never reached a deferred rebuild";
}

TEST(PlatformScheme, ClearSchemeLeavesOthersIntact) {
  Stack s(8, 6);
  auto a = s.platform->register_scheme("a", uniform_boundary(1, 0, 1), false);
  auto b = s.platform->register_scheme("b", uniform_boundary(1, 0, 1), true);
  for (int i = 0; i < 30; ++i) {
    s.platform->insert(a, static_cast<std::uint64_t>(i),
                       IndexPoint{0.1 + i * 0.01});
    s.platform->insert(b, static_cast<std::uint64_t>(i),
                       IndexPoint{0.1 + i * 0.01});
  }
  const Region whole{{Interval{0, 1}}};
  // Probe scheme a first, so its stores are built before the clear.
  auto before = s.query_all(a, whole);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->results.size(), 30u);
  s.platform->clear_scheme(a);
  EXPECT_EQ(s.platform->scheme_entries(a), 0u);
  EXPECT_EQ(s.platform->scheme_entries(b), 30u);
  EXPECT_EQ(s.platform->total_entries(), 30u);
  // Queries agree: the cleared scheme answers empty, the other in full.
  auto cleared = s.query_all(a, whole);
  ASSERT_TRUE(cleared.has_value());
  EXPECT_TRUE(cleared->complete);
  EXPECT_TRUE(cleared->results.empty());
  auto intact = s.query_all(b, whole);
  ASSERT_TRUE(intact.has_value());
  EXPECT_EQ(intact->results.size(), 30u);
}

TEST(PlatformScheme, BoundaryUpdateRequiresEmptyStoreAndSameDims) {
  Stack s(8, 7);
  auto scheme = s.platform->register_scheme("bnd", uniform_boundary(2, 0, 1),
                                            false);
  s.platform->update_scheme_boundary(scheme, uniform_boundary(2, 0, 5));
  EXPECT_DOUBLE_EQ(s.platform->scheme(scheme).boundary[0].hi, 5.0);
  // Entries hashed under the new boundary; queries work.
  s.platform->insert(scheme, 1, IndexPoint{4.0, 4.0});
  auto outcome = s.query_all(scheme, Region{{Interval{3, 5}, Interval{3, 5}}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->results.size(), 1u);
  EXPECT_DEATH(
      s.platform->update_scheme_boundary(scheme, uniform_boundary(2, 0, 9)),
      "scheme_entries");
}

TEST(PlatformReplies, OneResultMessagePerNodePerStep) {
  // Constant latency means every subquery bound for a node arrives in
  // lockstep waves; each wave produces exactly one reply per node.
  Stack s(4, 8);
  auto scheme = s.platform->register_scheme("batch",
                                            uniform_boundary(2, 0, 1), false);
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  auto outcome = s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
  ASSERT_TRUE(outcome.has_value());
  // Many subqueries were solved, but replies are batched per node/step:
  // far fewer result messages than local solves.
  EXPECT_GT(outcome->subqueries, outcome->result_messages * 2);
  EXPECT_GE(outcome->result_messages,
            static_cast<std::uint64_t>(outcome->index_nodes));
  // Byte model: every result message is 20 + 6*entries; entries total
  // equals the distinct results (whole-space query, kAllMatches).
  EXPECT_EQ(outcome->result_bytes,
            outcome->result_messages * 20 + 6 * outcome->results.size());
}

TEST(PlatformReplies, QueryMessageBytesDecomposePerBatchModel) {
  Stack s(32, 10);
  auto scheme = s.platform->register_scheme("bytes",
                                            uniform_boundary(3, 0, 1), false);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(
        scheme, static_cast<std::uint64_t>(i),
        IndexPoint{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  auto outcome = s.query_all(
      scheme,
      Region{{Interval{0.1, 0.8}, Interval{0.2, 0.9}, Interval{0.0, 0.7}}});
  ASSERT_TRUE(outcome.has_value());
  // Each message: 24 + n * (2*2*3 + 8 + 1) = 24 + 21n bytes.
  ASSERT_GT(outcome->query_messages, 0u);
  std::uint64_t payload =
      outcome->query_bytes - outcome->query_messages * 24;
  EXPECT_EQ(payload % 21, 0u);
  EXPECT_GE(payload / 21, outcome->query_messages);
}

TEST(PlatformRanking, RankFunctionMemoizedPerQuery) {
  // The platform scores each candidate once, before sorting, so a
  // functional needs no memo. Here we verify the platform honours
  // whatever functional it is given and that per-node top-k selects by
  // it.
  Stack s(1, 12);
  IndexPlatform::Options popts;
  popts.top_k = 2;
  auto platform = std::make_unique<IndexPlatform>(*s.ring, popts);
  auto scheme =
      platform->register_scheme("rank", uniform_boundary(1, 0, 1), false);
  platform->insert(scheme, 0, IndexPoint{0.30});
  platform->insert(scheme, 1, IndexPoint{0.31});
  platform->insert(scheme, 2, IndexPoint{0.32});
  platform->insert(scheme, 3, IndexPoint{0.33});
  // Inverted ranking: object id 3 is "nearest".
  auto rank = [](std::uint64_t id) { return 10.0 - static_cast<double>(id); };
  std::optional<IndexPlatform::QueryOutcome> outcome;
  platform->range_query(*s.ring->alive_nodes()[0], scheme, IndexPoint{0.315},
                        0.05, ReplyMode::kTopK,
                        [&](const auto& o) { outcome = o; }, rank);
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_TRUE(got.count(3) == 1);
  EXPECT_TRUE(got.count(0) == 0);
}

TEST(PlatformTraffic, CountersSeparateQueryAndResultAndMaintenance) {
  Stack s(16, 13);
  auto scheme = s.platform->register_scheme("traffic",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  auto q0 = s.platform->query_traffic().bytes;
  auto r0 = s.platform->result_traffic().bytes;
  auto m0 = s.ring->maintenance_traffic().bytes;
  auto outcome = s.query_all(scheme, Region{{Interval{0.2, 0.7}}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(s.platform->query_traffic().bytes - q0, outcome->query_bytes);
  EXPECT_EQ(s.platform->result_traffic().bytes - r0, outcome->result_bytes);
  EXPECT_EQ(s.ring->maintenance_traffic().bytes, m0);  // no lookups used
  // Network total covers everything.
  EXPECT_GE(s.net.total_traffic().bytes,
            outcome->query_bytes + outcome->result_bytes);

  // Concurrent queries from one origin: every query message carries one
  // query's subqueries, so the outcomes' query bytes sum to the counter.
  const std::uint64_t q1 = s.platform->query_traffic().bytes;
  std::uint64_t summed = 0;
  int completed = 0;
  ChordNode& origin = *s.ring->alive_nodes()[0];
  for (int i = 0; i < 12; ++i) {
    s.platform->region_query(
        origin, scheme, Region{{Interval{0.3, 0.62}}}, IndexPoint{0.46},
        ReplyMode::kAllMatches, [&](const IndexPlatform::QueryOutcome& o) {
          EXPECT_TRUE(o.complete);
          summed += o.query_bytes;
          ++completed;
        });
  }
  s.sim.run();
  EXPECT_EQ(completed, 12);
  EXPECT_GT(summed, 0u);
  EXPECT_EQ(s.platform->query_traffic().bytes - q1, summed);
}

TEST(PlatformQueries, ActiveQueriesDrainToZero) {
  Stack s(16, 15);
  auto scheme = s.platform->register_scheme("drain",
                                            uniform_boundary(2, 0, 1), false);
  Rng rng(16);
  for (int i = 0; i < 200; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  int completed = 0;
  auto nodes = s.ring->alive_nodes();
  for (int i = 0; i < 10; ++i) {
    s.platform->region_query(
        *nodes[rng.below(nodes.size())], scheme,
        Region{{Interval{0.1, 0.9}, Interval{0.1, 0.9}}}, IndexPoint{0.5, 0.5},
        ReplyMode::kTopK, [&](const auto&) { ++completed; });
  }
  EXPECT_EQ(s.platform->active_queries(), 10u);
  s.sim.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(s.platform->active_queries(), 0u);
}

TEST(PlatformQueries, CandidateTallyMatchesStoredEntriesInRegion) {
  // kAllMatches at replication 1: each stored entry inside the region is
  // evaluated once, by the node storing it. Continuous coordinates put
  // no entry on a split plane, where sibling subqueries would both count
  // it. Wide regions make some nodes answer in several processing
  // steps, so a node's tally must outlive each reply flush.
  Stack s(16, 19);
  auto scheme =
      s.platform->register_scheme("tally", uniform_boundary(3, 0, 1), true);
  Rng rng(20);
  for (int i = 0; i < 600; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  auto nodes = s.ring->alive_nodes();
  for (int qi = 0; qi < 20; ++qi) {
    IndexPoint center{rng.uniform(), rng.uniform(), rng.uniform()};
    const double radius = 0.05 + 0.5 * rng.uniform();
    std::optional<IndexPlatform::QueryOutcome> outcome;
    s.platform->range_query(*nodes[rng.below(nodes.size())], scheme, center,
                            radius, ReplyMode::kAllMatches,
                            [&](const auto& o) { outcome = o; });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->complete);
    const Region region = query_region(center, radius);
    std::uint64_t total = 0;
    std::uint64_t busiest = 0;
    for (const ChordNode* n : nodes) {
      std::uint64_t inside = 0;
      for (EntryView e : s.platform->store(*n, scheme)) {
        if (linf_box_distance(e.point, region) <= 0.0) ++inside;
      }
      total += inside;
      busiest = std::max(busiest, inside);
    }
    EXPECT_GT(total, 0u) << "query " << qi;
    EXPECT_EQ(outcome->candidates, total) << "query " << qi;
    EXPECT_EQ(outcome->max_node_candidates, busiest) << "query " << qi;
    EXPECT_EQ(outcome->results.size(), total) << "query " << qi;
  }
}

TEST(PlatformQueries, PlaneEntryIsScoredOncePerEpisode) {
  // Two nodes: A at the top of the ring owns every key above B = 1.
  // Injected at A, the query splits at the first plane (dim 0 = 0.5);
  // both halves travel to B in one message, and B sends both back to A
  // in one message, so A solves both halves in one routing episode with
  // one store probe. The entry on the plane lies in both closed halves:
  // it is a candidate once (the per-piece probes counted it twice).
  Simulator sim;
  ConstantLatencyModel topo(2, 10 * kMillisecond);
  Network net(sim, topo);
  Ring ring(net, Ring::Options{});
  ChordNode& a = ring.create_node_with_id(0, ~Id{0});
  ring.create_node_with_id(1, Id{1});
  ring.bootstrap();
  IndexPlatform platform(ring);
  auto scheme =
      platform.register_scheme("plane", uniform_boundary(2, 0, 1), false);
  platform.insert(scheme, 1, IndexPoint{0.5, 0.15});   // on the plane
  platform.insert(scheme, 2, IndexPoint{0.45, 0.12});  // lower half
  platform.insert(scheme, 3, IndexPoint{0.55, 0.18});  // upper half
  platform.insert(scheme, 4, IndexPoint{0.7, 0.15});   // outside
  ASSERT_EQ(platform.store(a, scheme).size(), 4u);
  std::optional<IndexPlatform::QueryOutcome> outcome;
  platform.region_query(a, scheme, Region{{Interval{0.4, 0.6},
                                           Interval{0.1, 0.2}}},
                        IndexPoint{0.5, 0.15}, ReplyMode::kAllMatches,
                        [&](const auto& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->complete);
  EXPECT_EQ(outcome->subqueries, 2);  // the two halves
  EXPECT_EQ(outcome->index_nodes, 1);
  EXPECT_EQ(outcome->result_messages, 1u);
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_EQ(got, (std::set<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(outcome->results.size(), 3u);
  EXPECT_EQ(outcome->candidates, 3u);
  EXPECT_EQ(outcome->max_node_candidates, 3u);
}

TEST(PlatformLoad, MedianKeyHandlesRingWrap) {
  // A node whose ownership range wraps the zero point must still split
  // its entries correctly in ring order.
  Stack s(2, 17);
  auto scheme = s.platform->register_scheme("wrap",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(18);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  for (ChordNode* n : s.ring->alive_nodes()) {
    std::size_t load = s.platform->entries_on(*n);
    if (load < 10) continue;
    Id split = s.platform->median_key(*n);
    ASSERT_TRUE(in_open(split, n->predecessor().id, n->id()));
    std::size_t below = 0;
    for (EntryView e : s.platform->store(*n, scheme)) {
      if (in_open_closed(e.key, n->predecessor().id, split)) ++below;
    }
    EXPECT_NEAR(static_cast<double>(below), static_cast<double>(load) / 2,
                static_cast<double>(load) * 0.1 + 1);
  }
}

// median_key as a full sort of every offset from the predecessor: the
// largest offset in the first half, backed off below the top cluster.
Id sorted_median_key(const IndexPlatform& platform, const ChordNode& n,
                     const std::vector<std::uint32_t>& schemes) {
  const Id pred = n.predecessor().id;
  std::vector<Id> offsets;
  for (std::uint32_t scheme : schemes) {
    for (EntryView e : platform.store(n, scheme)) {
      offsets.push_back(clockwise_distance(pred, e.key));
    }
  }
  if (offsets.empty()) return pred;
  std::sort(offsets.begin(), offsets.end());
  const std::size_t half = offsets.size() / 2;
  if (half == 0) return pred;
  Id split_offset = offsets[half - 1];
  if (split_offset == offsets.back() && offsets.front() == offsets.back()) {
    return pred;
  }
  if (split_offset == offsets.back()) {
    auto lower =
        std::lower_bound(offsets.begin(), offsets.end(), split_offset);
    split_offset = *(lower - 1);
  }
  return pred + split_offset;
}

TEST(PlatformLoad, MedianKeyMatchesSortedReference) {
  // One node owns the whole ring, so every entry lands in its stores:
  // empty, one entry, all entries on one key, a top cluster holding
  // more than half the entries (the back-off path), and random loads
  // over two schemes; then every node of a 24-node ring.
  std::size_t checked = 0;
  auto expect_match = [&](const Stack& s,
                          const std::vector<std::uint32_t>& schemes,
                          const char* what) {
    for (ChordNode* n : s.ring->alive_nodes()) {
      ++checked;
      EXPECT_EQ(s.platform->median_key(*n),
                sorted_median_key(*s.platform, *n, schemes))
          << what << ", host " << n->host() << ", "
          << s.platform->entries_on(*n) << " entries";
    }
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Stack s(1, seed);
    const std::vector<std::uint32_t> schemes{
        s.platform->register_scheme("a", uniform_boundary(2, 0, 1), false),
        s.platform->register_scheme("b", uniform_boundary(3, 0, 1), false)};
    Rng rng(seed + 40);
    auto random_point = [&](std::size_t dims) {
      IndexPoint p(dims);
      for (double& c : p) c = rng.uniform();
      return p;
    };
    std::uint64_t object = 0;
    expect_match(s, schemes, "empty");
    s.platform->insert(schemes[0], object++, random_point(2));
    expect_match(s, schemes, "one entry");
    const IndexPoint same = random_point(2);
    for (int i = 0; i < 6; ++i) s.platform->insert(schemes[0], object++, same);
    expect_match(s, schemes, "all but one on one key");
    s.platform->clear_scheme(schemes[0]);
    for (int i = 0; i < 7; ++i) s.platform->insert(schemes[0], object++, same);
    expect_match(s, schemes, "all on one key");
    s.platform->clear_scheme(schemes[0]);
    // A top cluster: more copies of the highest-offset entry than all
    // the other entries together.
    for (int i = 0; i < 20; ++i) {
      s.platform->insert(schemes[1], object++, random_point(3));
    }
    ChordNode& only = *s.ring->alive_nodes()[0];
    const Id pred = only.predecessor().id;
    IndexPoint top;
    Id top_offset = 0;
    for (EntryView e : s.platform->store(only, schemes[1])) {
      if (clockwise_distance(pred, e.key) >= top_offset) {
        top_offset = clockwise_distance(pred, e.key);
        top.assign(e.point.begin(), e.point.end());
      }
    }
    for (int i = 0; i < 40; ++i) s.platform->insert(schemes[1], object++, top);
    expect_match(s, schemes, "top cluster");
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t scheme = schemes[rng.below(2)];
      s.platform->insert(scheme, object++, random_point(scheme == 0 ? 2 : 3));
      expect_match(s, schemes, "random");
    }
  }
  Stack many(24, 5);
  const std::vector<std::uint32_t> schemes{
      many.platform->register_scheme("r", uniform_boundary(1, 0, 1), false)};
  Rng rng(6);
  for (int i = 0; i < 600; ++i) {
    many.platform->insert(schemes[0], static_cast<std::uint64_t>(i),
                          IndexPoint{rng.uniform()});
  }
  expect_match(many, schemes, "24 nodes");
  EXPECT_GT(checked, 800u);
}

}  // namespace
}  // namespace lmk
