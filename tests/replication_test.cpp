// Tests for entry replication: placement on successor chains, crash
// tolerance, deduplicated query results, removal of all copies, the
// repair procedure after membership changes, and probes of a store that
// repair emptied.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/index_platform.hpp"

namespace lmk {
namespace {

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed, std::size_t replication)
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    IndexPlatform::Options popts;
    popts.replication = replication;
    platform = std::make_unique<IndexPlatform>(*ring, popts);
  }

  std::set<std::uint64_t> query_all(std::uint32_t scheme,
                                    const Region& region) {
    std::optional<IndexPlatform::QueryOutcome> outcome;
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.5),
                           ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
    sim.run();
    EXPECT_TRUE(outcome.has_value() && outcome->complete);
    last = outcome;
    return {outcome->results.begin(), outcome->results.end()};
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
  std::optional<IndexPlatform::QueryOutcome> last;
};

TEST(Replication, PlacesRCopiesOnDistinctNodes) {
  Stack s(16, 1, /*replication=*/3);
  auto scheme =
      s.platform->register_scheme("r3", uniform_boundary(1, 0, 1), false);
  s.platform->insert(scheme, 42, IndexPoint{0.5});
  EXPECT_EQ(s.platform->scheme_entries(scheme), 3u);
  int holders = 0;
  for (ChordNode* n : s.ring->alive_nodes()) {
    if (!s.platform->store(*n, scheme).empty()) ++holders;
  }
  EXPECT_EQ(holders, 3);
  s.platform->check_placement_invariant();
}

TEST(Replication, TinyRingCapsReplication) {
  Stack s(2, 2, /*replication=*/5);
  auto scheme =
      s.platform->register_scheme("tiny", uniform_boundary(1, 0, 1), false);
  s.platform->insert(scheme, 1, IndexPoint{0.7});
  // Only 2 distinct nodes exist.
  EXPECT_EQ(s.platform->scheme_entries(scheme), 2u);
}

TEST(Replication, QueryResultsAreDeduplicated) {
  Stack s(12, 3, /*replication=*/3);
  auto scheme =
      s.platform->register_scheme("dedup", uniform_boundary(2, 0, 1), false);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  auto got = s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
  EXPECT_EQ(got.size(), 100u);
  EXPECT_EQ(s.last->results.size(), 100u);  // no duplicates in the list
}

TEST(Replication, SurvivesCrashOfTheOwner) {
  Stack s(24, 5, /*replication=*/2);
  auto scheme =
      s.platform->register_scheme("crash", uniform_boundary(1, 0, 1), false);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  // Crash 3 (non-adjacent) nodes; with 2 copies on consecutive nodes,
  // no entry disappears as long as no two adjacent nodes die.
  auto alive = s.ring->alive_nodes();
  std::sort(alive.begin(), alive.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  s.ring->fail(*alive[2]);
  s.ring->fail(*alive[9]);
  s.ring->fail(*alive[17]);
  for (ChordNode* n : s.ring->alive_nodes()) s.ring->fix_neighbors(*n);
  s.ring->refresh_all_fingers();
  auto got = s.query_all(scheme, Region{{Interval{0, 1}}});
  EXPECT_EQ(got.size(), 300u);  // nothing lost
}

TEST(Replication, UnreplicatedBaselineLosesCrashedEntries) {
  Stack s(24, 5, /*replication=*/1);
  auto scheme =
      s.platform->register_scheme("crash1", uniform_boundary(1, 0, 1), false);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  auto alive = s.ring->alive_nodes();
  std::size_t lost = s.platform->entries_on(*alive[4]);
  ASSERT_GT(lost, 0u);
  s.ring->fail(*alive[4]);
  for (ChordNode* n : s.ring->alive_nodes()) s.ring->fix_neighbors(*n);
  s.ring->refresh_all_fingers();
  auto got = s.query_all(scheme, Region{{Interval{0, 1}}});
  EXPECT_EQ(got.size(), 300u - lost);
}

TEST(Replication, RemoveErasesAllCopies) {
  Stack s(16, 7, /*replication=*/3);
  auto scheme =
      s.platform->register_scheme("rm", uniform_boundary(1, 0, 1), false);
  s.platform->insert(scheme, 5, IndexPoint{0.25});
  EXPECT_EQ(s.platform->scheme_entries(scheme), 3u);
  EXPECT_TRUE(s.platform->remove(scheme, 5, IndexPoint{0.25}));
  EXPECT_EQ(s.platform->scheme_entries(scheme), 0u);
}

TEST(Replication, RepairRestoresDegreeAfterCrash) {
  Stack s(20, 8, /*replication=*/3);
  auto scheme =
      s.platform->register_scheme("repair", uniform_boundary(1, 0, 1), false);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  EXPECT_EQ(s.platform->scheme_entries(scheme), 600u);
  auto alive = s.ring->alive_nodes();
  s.ring->fail(*alive[3]);
  s.ring->fail(*alive[11]);
  for (ChordNode* n : s.ring->alive_nodes()) s.ring->fix_neighbors(*n);
  s.ring->refresh_all_fingers();
  // Copies on the dead nodes are gone; repair re-replicates from the
  // survivors and restores exactly 3 copies of all 200 entries.
  EXPECT_LT(s.platform->scheme_entries(scheme), 600u);
  s.platform->repair_replication();
  EXPECT_EQ(s.platform->scheme_entries(scheme), 600u);
  s.platform->check_placement_invariant();
  auto got = s.query_all(scheme, Region{{Interval{0, 1}}});
  EXPECT_EQ(got.size(), 200u);
}

TEST(Replication, RepairIsIdempotent) {
  Stack s(12, 10, /*replication=*/2);
  auto scheme =
      s.platform->register_scheme("idem", uniform_boundary(1, 0, 1), false);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  s.platform->repair_replication();
  EXPECT_EQ(s.platform->scheme_entries(scheme), 200u);
  s.platform->repair_replication();
  EXPECT_EQ(s.platform->scheme_entries(scheme), 200u);
  s.platform->check_placement_invariant();
}

TEST(Replication, RepairNormalizesAfterMigrationDrift) {
  // Migration transfers move only the owned range; replicas drift.
  // repair_replication restores the invariant.
  Stack s(24, 12, /*replication=*/2);
  auto scheme =
      s.platform->register_scheme("drift", uniform_boundary(1, 0, 1), false);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{std::clamp(rng.normal(0.8, 0.05), 0.0,
                                             1.0)});
  }
  LoadBalancer::Options bopts;
  bopts.delta = 0.0;
  bopts.probe_level = 4;
  LoadBalancer lb(*s.ring, bopts, s.platform->balancer_hooks());
  lb.run_until_stable(10);
  s.platform->repair_replication();
  s.platform->check_placement_invariant();
  EXPECT_EQ(s.platform->scheme_entries(scheme), 800u);
  auto got = s.query_all(scheme, Region{{Interval{0, 1}}});
  EXPECT_EQ(got.size(), 400u);
}

TEST(Replication, RepairThatEmptiesAProbedStoreKeepsQueriesExact) {
  // With 2 copies, a node whose own arc holds no keys stores only the
  // copies of its predecessor's entries. Probe it, so its local store is
  // built over those copies; then put a node between the two and
  // repair. The copies move to the new node and nothing refills the
  // probed store, so only the write count of repair's clear() keeps its
  // next probe off the index of rows that are gone.
  Stack s(24, 14, /*replication=*/2);
  auto scheme = s.platform->register_scheme(
      "emptied", uniform_boundary(1, 0, 1), false);
  Rng rng(15);
  std::vector<double> xs;  // object i sits at xs[i]
  for (std::uint64_t i = 0; i < 60; ++i) {
    xs.push_back(rng.uniform(0.40, 0.42));
    s.platform->insert(scheme, i, IndexPoint{xs.back()});
  }
  auto oracle = [&](const Region& r) {
    std::set<std::uint64_t> in;
    for (std::uint64_t i = 0; i < xs.size(); ++i) {
      if (xs[i] >= r.ranges[0].lo && xs[i] <= r.ranges[0].hi) in.insert(i);
    }
    return in;
  };
  // One dimension: a key is the binary expansion of the coordinate.
  auto coord = [](const ChordNode& n) {
    return static_cast<double>(n.id()) * 0x1p-64;
  };
  auto nodes = s.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  ChordNode* copies_only = nullptr;
  for (ChordNode* n : nodes) {
    const EntryStore& es = s.platform->store(*n, scheme);
    bool owns = false;
    for (std::size_t i = 0; i < es.size(); ++i) {
      owns = owns || s.ring->oracle_successor(es.key(i)) == n;
    }
    if (!es.empty() && !owns) {
      copies_only = n;
      break;
    }
  }
  ASSERT_NE(copies_only, nullptr);
  ChordNode* owner = s.ring->oracle_predecessor(copies_only->id());
  ASSERT_LT(owner->id(), copies_only->id());
  const Region before{{Interval{0.40, coord(*copies_only)}}};
  ASSERT_EQ(oracle(before).size(), xs.size());
  EXPECT_EQ(s.query_all(scheme, before), oracle(before));

  // A node that stores nothing leaves and rejoins between the two.
  ChordNode* mover = nullptr;
  for (ChordNode* n : nodes) {
    if (s.platform->store(*n, scheme).empty()) mover = n;
  }
  ASSERT_NE(mover, nullptr);
  s.ring->leave(*mover);
  s.ring->rejoin(*mover, owner->id() + (copies_only->id() - owner->id()) / 2);
  for (ChordNode* n : s.ring->alive_nodes()) s.ring->fix_neighbors(*n);
  s.ring->refresh_all_fingers();
  s.platform->repair_replication();
  s.platform->check_placement_invariant();
  ASSERT_TRUE(s.platform->store(*copies_only, scheme).empty());
  EXPECT_EQ(s.platform->store(*mover, scheme).size(), xs.size());

  const Region after{{Interval{coord(*mover), coord(*copies_only)}}};
  EXPECT_EQ(s.query_all(scheme, after), oracle(after));
  const Region all{{Interval{0, 1}}};
  EXPECT_EQ(s.query_all(scheme, all), oracle(all));
}

}  // namespace
}  // namespace lmk
