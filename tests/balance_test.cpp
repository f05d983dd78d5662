// Tests for load balancing: static rotation offsets and dynamic load
// migration (probing, split-point choice, leave/rejoin transfers, and
// the placement invariant across migrations).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "balance/migration.hpp"
#include "balance/rotation.hpp"
#include "common/stats.hpp"
#include "core/index_platform.hpp"

namespace lmk {
namespace {

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

TEST(Rotation, OffsetsDifferPerIndexName) {
  EXPECT_NE(rotation_offset("images"), rotation_offset("documents"));
  EXPECT_EQ(rotation_offset("images"), rotation_offset("images"));
}

TEST(Rotation, ShiftsHotspotPlacement) {
  // Two schemes with identical entry distributions; without rotation the
  // same nodes host both hot spots, with rotation they split.
  Stack s(64, 1);
  std::uint32_t plain_a = s.platform->register_scheme(
      "same-a", uniform_boundary(1, 0, 1), false);
  std::uint32_t plain_b = s.platform->register_scheme(
      "same-b", uniform_boundary(1, 0, 1), false);
  std::uint32_t rot_a = s.platform->register_scheme(
      "rot-a", uniform_boundary(1, 0, 1), true);
  std::uint32_t rot_b = s.platform->register_scheme(
      "rot-b", uniform_boundary(1, 0, 1), true);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    // Hot region near the upper boundary (the paper's hyperball effect).
    IndexPoint p{1.0 - std::abs(rng.normal(0, 0.02))};
    s.platform->insert(plain_a, i, p);
    s.platform->insert(plain_b, i, p);
    s.platform->insert(rot_a, i, p);
    s.platform->insert(rot_b, i, p);
  }
  // Without rotation, per-node loads of the two schemes coincide; with
  // rotation they should not.
  auto max_load_overlap = [&s](std::uint32_t a, std::uint32_t b) {
    std::size_t both = 0, either = 0;
    for (ChordNode* n : s.ring->alive_nodes()) {
      bool ha = !s.platform->store(*n, a).empty();
      bool hb = !s.platform->store(*n, b).empty();
      if (ha && hb) ++both;
      if (ha || hb) ++either;
    }
    return either == 0 ? 0.0
                       : static_cast<double>(both) /
                             static_cast<double>(either);
  };
  EXPECT_GT(max_load_overlap(plain_a, plain_b), 0.99);
  EXPECT_LT(max_load_overlap(rot_a, rot_b), 0.5);
}

TEST(Migration, ProbeSetRespectsLevelAndExcludesSelf) {
  Stack s(64, 3);
  LoadBalancer::Options opts;
  opts.probe_level = 1;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  ChordNode* n = s.ring->alive_nodes()[0];
  auto probes = lb.probe_set(*n);
  EXPECT_FALSE(probes.empty());
  for (ChordNode* p : probes) EXPECT_NE(p, n);
  // Level-1 probes are exactly the valid routing-table neighbours.
  // lmk-lint: allow(pointer-key) membership-equality check only
  std::set<ChordNode*> expected;
  for (const NodeRef& r : n->successor_list()) {
    if (r.valid()) expected.insert(r.node);
  }
  for (const NodeRef& r : n->finger_table()) {
    if (r.valid() && r.node != n) expected.insert(r.node);
  }
  if (n->predecessor().valid()) expected.insert(n->predecessor().node);
  // lmk-lint: allow(pointer-key) same membership-equality check
  std::set<ChordNode*> got(probes.begin(), probes.end());
  EXPECT_EQ(got, expected);
}

TEST(Migration, HigherProbeLevelSeesMore) {
  Stack s(256, 4);
  LoadBalancer::Options l1;
  l1.probe_level = 1;
  LoadBalancer::Options l3;
  l3.probe_level = 3;
  LoadBalancer lb1(*s.ring, l1, s.platform->balancer_hooks());
  LoadBalancer lb3(*s.ring, l3, s.platform->balancer_hooks());
  ChordNode* n = s.ring->alive_nodes()[0];
  EXPECT_GT(lb3.probe_set(*n).size(), lb1.probe_set(*n).size());
}

// Reference probe set: a BFS over all 81 slots of each frontier node
// (successor list, fingers, predecessor) in slot order, deduplicated by
// a hash set and capped at kMaxProbeSet.
std::vector<ChordNode*> slot_walk_probe_set(ChordNode& n, int probe_level) {
  // Membership test only: the BFS order comes from `frontier`.
  // lmk-lint: allow(pointer-key-unordered)
  std::unordered_set<ChordNode*> seen{&n};
  std::vector<ChordNode*> frontier{&n};
  std::vector<ChordNode*> out;
  for (int level = 0; level < probe_level && !frontier.empty(); ++level) {
    std::vector<ChordNode*> next;
    for (ChordNode* cur : frontier) {
      auto consider = [&](const NodeRef& r) {
        if (!r.valid() || seen.count(r.node) != 0) return;
        if (out.size() >= LoadBalancer::kMaxProbeSet) return;
        seen.insert(r.node);
        out.push_back(r.node);
        next.push_back(r.node);
      };
      for (const NodeRef& sr : cur->successor_list()) consider(sr);
      for (const NodeRef& f : cur->finger_table()) consider(f);
      consider(cur->predecessor());
    }
    frontier = std::move(next);
  }
  return out;
}

/// A PNS ring over a delay-space topology, so finger choices vary.
struct DelayStack {
  DelayStack(std::size_t hosts, std::uint64_t seed)
      : topo(topology(hosts, seed)), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }
  static DelaySpaceModel::Options topology(std::size_t hosts,
                                           std::uint64_t seed) {
    DelaySpaceModel::Options o;
    o.hosts = hosts;
    o.seed = seed;
    return o;
  }

  Simulator sim;
  DelaySpaceModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

constexpr int kProbeLevels[] = {1, 2, 4};

TEST(Migration, ProbeSetMatchesSlotWalkInOracleStates) {
  // Oracle states (bootstrap, leave + rejoin, fail, refresh_all_fingers)
  // keep every node's valid slots in distance order, so the table walk
  // must reproduce the slot walk's probe order exactly. The 256 cap
  // binds from 300 nodes.
  std::size_t probes = 0, mismatches = 0;
  for (std::size_t size : {20, 90, 300, 700}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      DelayStack s(size, seed * 1000 + size);
      Rng rng(seed * 7919 + size);
      auto check = [&](int step) {
        const std::vector<ChordNode*> alive = s.ring->alive_nodes();
        for (int k = 0; k < 15; ++k) {
          ChordNode& n = *alive[rng.below(alive.size())];
          for (int level : kProbeLevels) {
            LoadBalancer::Options opts;
            opts.probe_level = level;
            LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
            ++probes;
            if (lb.probe_set(n) == slot_walk_probe_set(n, level)) continue;
            if (mismatches++ == 0) {
              ADD_FAILURE() << size << " nodes, seed " << seed << ", step "
                            << step << ", P_l " << level << ", host "
                            << n.host();
            }
          }
        }
      };
      check(-1);
      for (int step = 0; step < 16; ++step) {
        ChordNode& n = s.ring->node(rng.below(s.ring->node_count()));
        const std::uint64_t op = rng.below(3);
        if (op == 0 || !n.alive()) {
          if (n.alive()) s.ring->leave(n);
          s.ring->rejoin(n, rng.next());
        } else if (op == 1 && s.ring->alive_count() > size / 2) {
          s.ring->fail(n);
        } else {
          s.ring->refresh_all_fingers();
        }
        check(step);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << probes << " probes";
}

TEST(Migration, ProbeSetMatchesSlotWalkSetAfterStabilization) {
  // Protocol states (crashes repaired by stabilization) promise no slot
  // order, so compare sets; below 257 nodes the cap cannot bind, and
  // the set does not depend on walk order.
  std::size_t probes = 0, mismatches = 0;
  for (std::size_t size : {24, 96, 200}) {
    DelayStack s(size, size);
    Rng rng(size + 1);
    auto by_host = [](std::vector<ChordNode*> v) {
      std::sort(v.begin(), v.end(), [](const ChordNode* a, const ChordNode* b) {
        return a->host() < b->host();
      });
      return v;
    };
    for (int round = 0; round < 3; ++round) {
      for (std::size_t f = 0; f < size / 12 + 1; ++f) {
        const std::vector<ChordNode*> alive = s.ring->alive_nodes();
        s.ring->fail(*alive[rng.below(alive.size())]);
      }
      s.ring->run_stabilization(6, 200 * kMillisecond);
      for (ChordNode* n : s.ring->alive_nodes()) {
        for (int level : kProbeLevels) {
          LoadBalancer::Options opts;
          opts.probe_level = level;
          LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
          ++probes;
          if (by_host(lb.probe_set(*n)) ==
              by_host(slot_walk_probe_set(*n, level))) {
            continue;
          }
          if (mismatches++ == 0) {
            ADD_FAILURE() << size << " nodes, round " << round << ", P_l "
                          << level << ", host " << n->host();
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << probes << " probes";
}

// Reference balancer without a load table: every alive node walks its
// probe set and reads each probe's load through the hook, and only the
// walk's tests reject. LoadBalancer must migrate exactly as it does.
class WalkEveryNodeBalancer {
 public:
  WalkEveryNodeBalancer(Ring& ring, LoadBalancer::Options opts,
                        LoadBalancer::Hooks hooks)
      : ring_(ring), opts_(opts), hooks_(hooks), prober_(ring, opts, hooks) {}

  int run_round() {
    int migrated = 0;
    for (ChordNode* n : ring_.alive_nodes()) {
      if (!n->alive()) continue;
      if (try_migrate(*n)) ++migrated;
    }
    if (migrated > 0) ring_.refresh_all_fingers();
    return migrated;
  }

 private:
  bool try_migrate(ChordNode& heavy) {
    std::vector<ChordNode*> probes = prober_.probe_set(heavy);
    if (probes.empty()) return false;
    double my_load = hooks_.load(heavy);
    double total = 0;
    ChordNode* lightest = nullptr;
    double lightest_load = 0;
    for (ChordNode* p : probes) {
      double l = hooks_.load(*p);
      total += l;
      if (lightest == nullptr || l < lightest_load) {
        lightest = p;
        lightest_load = l;
      }
    }
    double avg = total / static_cast<double>(probes.size());
    if (my_load <= avg * (1.0 + opts_.delta)) return false;
    if (lightest_load >= my_load / 2.0) return false;
    if (lightest == &heavy) return false;
    Id split = hooks_.split_key(heavy);
    if (!in_open(split, heavy.predecessor().id, heavy.id())) return false;
    ChordNode* occupied = ring_.oracle_successor(split);
    while (occupied->id() == split) {
      ++split;
      if (!in_open(split, heavy.predecessor().id, heavy.id())) return false;
      occupied = ring_.oracle_successor(split);
    }
    ChordNode* victim_succ = lightest->successor().node;
    if (victim_succ == &heavy && hooks_.load(*lightest) > 0) return false;
    hooks_.drain_to(*lightest, *victim_succ);
    ring_.leave(*lightest);
    ring_.rejoin(*lightest, split);
    hooks_.pull_owned(heavy, *lightest);
    return true;
  }

  Ring& ring_;
  LoadBalancer::Options opts_;
  LoadBalancer::Hooks hooks_;
  LoadBalancer prober_;  // probe_set only
};

// One drain or pull as the balancer issued it: kind, then the hosts and
// ids of both ends at the time of the call.
using Move = std::tuple<char, HostId, Id, HostId, Id>;

// The platform's hooks, logging every drain and pull into `log`.
LoadBalancer::Hooks logged_hooks(IndexPlatform& platform,
                                 std::vector<Move>& log) {
  LoadBalancer::Hooks hooks = platform.balancer_hooks();
  hooks.drain_to = [drain = hooks.drain_to, &log](ChordNode& from,
                                                  ChordNode& to) {
    log.emplace_back('d', from.host(), from.id(), to.host(), to.id());
    drain(from, to);
  };
  hooks.pull_owned = [pull = hooks.pull_owned, &log](ChordNode& from,
                                                     ChordNode& to) {
    log.emplace_back('p', from.host(), from.id(), to.host(), to.id());
    pull(from, to);
  };
  return hooks;
}

// Every node ever created, in creation order: alive, id and load.
std::vector<std::tuple<bool, Id, std::size_t>> layout(DelayStack& s) {
  std::vector<std::tuple<bool, Id, std::size_t>> out;
  for (std::size_t i = 0; i < s.ring->node_count(); ++i) {
    const ChordNode& n = s.ring->node(i);
    out.emplace_back(n.alive(), n.id(), s.platform->entries_on(n));
  }
  return out;
}

// A ring of `size` nodes holding 24 skewed entries per node, with
// `replication` copies each; `crashed` nodes then fail, their ring
// neighbours are repaired, and every finger that named them stays stale.
std::unique_ptr<DelayStack> skewed_ring(std::size_t size,
                                        std::size_t replication,
                                        std::size_t crashed) {
  auto s = std::make_unique<DelayStack>(size, 31 * size + replication);
  IndexPlatform::Options popts;
  popts.replication = replication;
  s->platform = std::make_unique<IndexPlatform>(*s->ring, popts);
  const std::uint32_t scheme = s->platform->register_scheme(
      "skew", uniform_boundary(2, 0, 1), false);
  Rng rng(size + replication);
  for (std::uint64_t i = 0; i < 24 * size; ++i) {
    s->platform->insert(
        scheme, i,
        IndexPoint{std::clamp(rng.normal(0.8, 0.08), 0.0, 1.0),
                   std::clamp(rng.normal(0.3, 0.15), 0.0, 1.0)});
  }
  for (std::size_t c = 0; c < crashed; ++c) {
    const std::vector<ChordNode*> alive = s->ring->alive_nodes();
    s->ring->fail(*alive[rng.below(alive.size())]);
  }
  if (crashed > 0) {
    for (ChordNode* n : s->ring->alive_nodes()) s->ring->fix_neighbors(*n);
  }
  return s;
}

TEST(Migration, RoundsMatchWalkEveryNodeReference) {
  // The load table skips a node's probe walk only when the walk would
  // reject anyway, so on identical rings both balancers must issue the
  // same drains and pulls in the same order, round after round.
  struct RingCase {
    std::size_t size;
    std::size_t crashed;
  };
  int migrations = 0, stale_refs = 0;
  for (const RingCase ring : {RingCase{16, 0}, RingCase{64, 0},
                              RingCase{256, 0}, RingCase{64, 6}}) {
    for (const double delta : {0.0, 0.25}) {
      for (const int level : kProbeLevels) {
        for (const std::size_t replication : {1u, 2u}) {
          SCOPED_TRACE(testing::Message()
                       << ring.size << " nodes, " << ring.crashed
                       << " crashed, delta " << delta << ", P_l " << level
                       << ", replication " << replication);
          auto got = skewed_ring(ring.size, replication, ring.crashed);
          auto want = skewed_ring(ring.size, replication, ring.crashed);
          for (ChordNode* n : got->ring->alive_nodes()) {
            for (const NodeRef& f : n->finger_table()) {
              stale_refs += f.node != nullptr && !f.node->alive();
            }
          }
          LoadBalancer::Options opts;
          opts.delta = delta;
          opts.probe_level = level;
          std::vector<Move> got_log, want_log;
          LoadBalancer lb(*got->ring, opts,
                          logged_hooks(*got->platform, got_log));
          WalkEveryNodeBalancer ref(*want->ring, opts,
                                    logged_hooks(*want->platform, want_log));
          for (int round = 0; round < 12; ++round) {
            const int m = lb.run_round();
            ASSERT_EQ(m, ref.run_round()) << "round " << round;
            ASSERT_EQ(got_log, want_log) << "round " << round;
            ASSERT_EQ(layout(*got), layout(*want)) << "round " << round;
            migrations += m;
            if (m == 0) break;
          }
        }
      }
    }
  }
  // The comparison means something only if rounds migrate, and the
  // crashed ring's fingers really name dead nodes.
  EXPECT_GT(migrations, 1000);
  EXPECT_GT(stale_refs, 0);
}

TEST(Migration, MovesLoadOffTheHotNode) {
  Stack s(32, 5);
  std::uint32_t scheme = s.platform->register_scheme(
      "hot", uniform_boundary(1, 0, 1), false);
  Rng rng(6);
  // Skewed load: everything in a narrow band of the key space.
  for (int i = 0; i < 1000; ++i) {
    s.platform->insert(scheme, i, IndexPoint{rng.uniform(0.90, 0.95)});
  }
  auto loads_before = s.platform->load_distribution();
  std::size_t max_before =
      *std::max_element(loads_before.begin(), loads_before.end());
  LoadBalancer::Options opts;
  opts.delta = 0.0;
  opts.probe_level = 4;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  int migrations = lb.run_until_stable();
  EXPECT_GT(migrations, 0);
  s.platform->check_placement_invariant();
  auto loads_after = s.platform->load_distribution();
  std::size_t max_after =
      *std::max_element(loads_after.begin(), loads_after.end());
  EXPECT_LT(max_after, max_before);
  // Entry conservation: nothing lost or duplicated.
  EXPECT_EQ(s.platform->total_entries(), 1000u);
}

TEST(Migration, FlattensLoadSubstantially) {
  Stack s(64, 7);
  std::uint32_t scheme = s.platform->register_scheme(
      "skew", uniform_boundary(2, 0, 1), false);
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    IndexPoint p{std::clamp(rng.normal(0.8, 0.05), 0.0, 1.0),
                 std::clamp(rng.normal(0.2, 0.05), 0.0, 1.0)};
    s.platform->insert(scheme, i, p);
  }
  std::vector<double> before;
  for (std::size_t l : s.platform->load_distribution()) {
    before.push_back(static_cast<double>(l));
  }
  LoadBalancer::Options opts;
  opts.delta = 0.0;
  opts.probe_level = 4;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  lb.run_until_stable();
  std::vector<double> after;
  for (std::size_t l : s.platform->load_distribution()) {
    after.push_back(static_cast<double>(l));
  }
  EXPECT_LT(gini(after), gini(before) * 0.7);
  s.platform->check_placement_invariant();
}

TEST(Migration, NoMigrationWhenAlreadyEven) {
  Stack s(32, 9);
  std::uint32_t scheme = s.platform->register_scheme(
      "even", uniform_boundary(1, 0, 1), false);
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    s.platform->insert(scheme, i, IndexPoint{rng.uniform()});
  }
  // Uniform entries over uniform node ids: loads are roughly even, and a
  // large delta should suppress migrations entirely.
  LoadBalancer::Options opts;
  opts.delta = 5.0;
  opts.probe_level = 2;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  EXPECT_EQ(lb.run_round(), 0);
}

TEST(Migration, SingleKeyPileCannotBeSplit) {
  // All entries hash to one key (the paper's greedy-on-TREC pathology):
  // the balancer must refuse to "balance" by swapping the pile around.
  Stack s(16, 11);
  std::uint32_t scheme = s.platform->register_scheme(
      "pile", uniform_boundary(1, 0, 1), false);
  for (int i = 0; i < 500; ++i) {
    s.platform->insert(scheme, i, IndexPoint{0.777});
  }
  LoadBalancer::Options opts;
  opts.delta = 0.0;
  opts.probe_level = 4;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  int migrations = lb.run_until_stable(10);
  EXPECT_EQ(migrations, 0);
  EXPECT_EQ(s.platform->total_entries(), 500u);
}

TEST(Migration, MedianKeySplitsEntriesInHalf) {
  Stack s(4, 12);
  std::uint32_t scheme = s.platform->register_scheme(
      "med", uniform_boundary(1, 0, 1), false);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    s.platform->insert(scheme, i, IndexPoint{rng.uniform()});
  }
  for (ChordNode* n : s.ring->alive_nodes()) {
    std::size_t load = s.platform->entries_on(*n);
    if (load < 10) continue;
    Id split = s.platform->median_key(*n);
    ASSERT_TRUE(in_open(split, n->predecessor().id, n->id()))
        << "split key outside the node's range";
    std::size_t below = 0;
    for (EntryView e : s.platform->store(*n, scheme)) {
      if (in_open_closed(e.key, n->predecessor().id, split)) ++below;
    }
    EXPECT_NEAR(static_cast<double>(below), static_cast<double>(load) / 2,
                static_cast<double>(load) * 0.05 + 1);
  }
}

TEST(Migration, QueriesStillCorrectAfterBalancing) {
  Stack s(48, 14);
  std::uint32_t scheme = s.platform->register_scheme(
      "q-after", uniform_boundary(2, 0, 1), false);
  Rng rng(15);
  std::vector<IndexPoint> pts;
  for (int i = 0; i < 800; ++i) {
    IndexPoint p{std::clamp(rng.normal(0.7, 0.08), 0.0, 1.0),
                 std::clamp(rng.normal(0.3, 0.08), 0.0, 1.0)};
    s.platform->insert(scheme, i, p);
    pts.push_back(p);
  }
  LoadBalancer::Options opts;
  opts.delta = 0.0;
  opts.probe_level = 4;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  int migrations = lb.run_until_stable();
  EXPECT_GT(migrations, 0);
  auto nodes = s.ring->alive_nodes();
  for (int t = 0; t < 15; ++t) {
    Region r;
    for (int d = 0; d < 2; ++d) {
      double lo = rng.uniform(0, 0.9);
      r.ranges.push_back(Interval{lo, lo + 0.1});
    }
    std::set<std::uint64_t> expected;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i][0] >= r.ranges[0].lo && pts[i][0] <= r.ranges[0].hi &&
          pts[i][1] >= r.ranges[1].lo && pts[i][1] <= r.ranges[1].hi) {
        expected.insert(i);
      }
    }
    std::optional<IndexPlatform::QueryOutcome> outcome;
    s.platform->region_query(*nodes[rng.below(nodes.size())], scheme, r,
                             IndexPoint{0.5, 0.5}, ReplyMode::kAllMatches,
                             [&](const auto& o) { outcome = o; });
    s.sim.run();
    ASSERT_TRUE(outcome.has_value());
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(Migration, NodeDistributionSkewsAfterBalancing) {
  // The paper notes the cost of migration: node ids bunch up around hot
  // key ranges, deepening the search tree there.
  Stack s(64, 16);
  std::uint32_t scheme = s.platform->register_scheme(
      "skew-ids", uniform_boundary(1, 0, 1), false);
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    s.platform->insert(scheme, i,
                       IndexPoint{std::clamp(rng.normal(0.9, 0.01), 0.0, 1.0)});
  }
  LoadBalancer::Options opts;
  opts.delta = 0.0;
  opts.probe_level = 4;
  LoadBalancer lb(*s.ring, opts, s.platform->balancer_hooks());
  lb.run_until_stable();
  // Count nodes whose id falls in the hot 10% of the (unrotated) key
  // space; after migrations it must exceed the uniform share.
  Boundary b = uniform_boundary(1, 0, 1);
  Id hot_lo = lph_hash(IndexPoint{0.85}, b);
  std::size_t in_hot = 0;
  for (ChordNode* n : s.ring->alive_nodes()) {
    if (n->id() >= hot_lo) ++in_hot;
  }
  EXPECT_GT(in_hot, s.ring->alive_count() * 15 / 100);
}

}  // namespace
}  // namespace lmk
