// Tests for the Chord substrate: node state, oracle construction,
// protocol lookups, join + stabilization convergence, PNS, and dynamic
// membership repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "chord/ring.hpp"

namespace lmk {
namespace {

struct TestOverlay {
  explicit TestOverlay(std::size_t hosts, bool pns = false,
                       std::uint64_t seed = 1)
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options opts;
    opts.pns = pns;
    opts.seed = seed;
    ring = std::make_unique<Ring>(net, opts);
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
};

TEST(ChordNode, OwnsUsesPredecessorInterval) {
  ChordNode a(0, 100), b(1, 200);
  b.set_predecessor(NodeRef{&a, 100});
  EXPECT_TRUE(b.owns(150));
  EXPECT_TRUE(b.owns(200));
  EXPECT_FALSE(b.owns(100));
  EXPECT_FALSE(b.owns(250));
}

TEST(ChordNode, SuccessorSkipsStaleRefs) {
  ChordNode a(0, 100), b(1, 200), c(2, 300);
  a.set_successors({NodeRef{&b, 200}, NodeRef{&c, 300}});
  EXPECT_EQ(a.successor().node, &b);
  b.kill();
  EXPECT_EQ(a.successor().node, &c);
  c.kill();
  EXPECT_EQ(a.successor().node, &a);  // self when all stale
}

TEST(ChordNode, StaleRefAfterRejoinWithNewId) {
  ChordNode a(0, 100), b(1, 200);
  NodeRef ref{&b, 200};
  EXPECT_TRUE(ref.valid());
  b.kill();
  EXPECT_FALSE(ref.valid());
  b.revive(555);
  EXPECT_FALSE(ref.valid());  // id changed: still stale
  EXPECT_TRUE(NodeRef(&b, 555).valid());
  (void)a;
}

TEST(ChordNode, NextHopPicksClosestPreceding) {
  ChordNode me(0, 0);
  ChordNode f1(1, 100), f2(2, 200), f3(3, 400);
  me.set_finger(0, NodeRef{&f1, 100});
  me.set_finger(1, NodeRef{&f2, 200});
  me.set_finger(2, NodeRef{&f3, 400});
  EXPECT_EQ(me.next_hop(300).node, &f2);
  EXPECT_EQ(me.next_hop(500).node, &f3);
  EXPECT_EQ(me.next_hop(150).node, &f1);
  // Nothing precedes key 50: me believes it is the predecessor.
  EXPECT_EQ(me.next_hop(50).node, &me);
  // Exact key: the owner is NOT a valid "preceding" entry.
  EXPECT_EQ(me.next_hop(200).node, &f1);
}

TEST(ChordNode, NextHopIgnoresStaleEntries) {
  ChordNode me(0, 0);
  ChordNode f1(1, 100), f2(2, 200);
  me.set_finger(0, NodeRef{&f1, 100});
  me.set_finger(1, NodeRef{&f2, 200});
  f2.kill();
  EXPECT_EQ(me.next_hop(300).node, &f1);
}

// Reference next_hop: scan all 80 slots, every finger and then every
// successor, keeping the valid entry in (me, key) closest to the key.
NodeRef slot_scan_next_hop(const ChordNode& me, Id key) {
  NodeRef best{const_cast<ChordNode*>(&me), me.id()};
  bool have = false;
  auto consider = [&](const NodeRef& r) {
    if (!r.valid() || !in_open(r.id, me.id(), key)) return;
    if (!have || in_open(r.id, best.id, key)) {
      best = r;
      have = true;
    }
  };
  for (const NodeRef& f : me.finger_table()) consider(f);
  for (const NodeRef& s : me.successor_list()) consider(s);
  return best;
}

TEST(ChordNode, NextHopMatchesSlotScanAcrossTableWrites) {
  // Hand-built tables of null, dead, stale-id, duplicate and self refs.
  // After every set_finger, set_successors, kill and revive (of the node
  // or of a peer), next_hop must return what the slot scan returns on
  // random keys, on every entry's id and id ± 1, and on the node's id.
  std::size_t keys = 0, mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    ChordNode me(0, rng.next());
    std::vector<std::unique_ptr<ChordNode>> peers;
    for (HostId h = 1; h <= 24; ++h) {
      peers.push_back(std::make_unique<ChordNode>(h, rng.next()));
    }
    auto peer = [&]() -> ChordNode& { return *peers[rng.below(peers.size())]; };
    auto random_ref = [&]() -> NodeRef {
      switch (rng.below(6)) {
        case 0:
          return NodeRef{};
        case 1:
          return me.self_ref();
        case 2:  // stale: a peer under this node's id
          return NodeRef{&peer(), me.id()};
        case 3:  // stale: a peer under another peer's id (a distance tie)
          return NodeRef{&peer(), peer().id()};
        case 4:  // duplicate of an installed finger
          return me.finger_table()[rng.below(kIdBits)];
        default:  // current id; dead, or stale after a revive, later on
          return peer().self_ref();
      }
    };
    auto check = [&](int step) {
      std::vector<Id> probe{me.id()};
      for (int i = 0; i < 8; ++i) probe.push_back(rng.next());
      auto around = [&](const NodeRef& r) {
        probe.insert(probe.end(), {r.id - 1, r.id, r.id + 1});
      };
      for (const NodeRef& r : me.finger_table()) around(r);
      for (const NodeRef& r : me.successor_list()) around(r);
      for (Id key : probe) {
        const NodeRef want = slot_scan_next_hop(me, key);
        const NodeRef got = me.next_hop(key);
        if (got.node == want.node && got.id == want.id) continue;
        if (mismatches++ == 0) {
          ADD_FAILURE() << "seed " << seed << " step " << step << " key "
                        << key << ": got id " << got.id << ", want id "
                        << want.id;
        }
      }
      keys += probe.size();
    };
    for (int i = 0; i < kIdBits; ++i) {
      me.set_finger(i, random_ref());
      check(-1);
    }
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(40);
      if (op < 16) {
        me.set_finger(static_cast<int>(rng.below(kIdBits)), random_ref());
      } else if (op < 24) {
        std::vector<NodeRef> list(rng.below(ChordNode::kSuccessors + 3));
        for (NodeRef& r : list) r = random_ref();
        me.set_successors(std::move(list));
      } else {
        ChordNode& target = op == 39 ? me : peer();
        if (target.alive()) {
          target.kill();
        } else {
          target.revive(rng.next());
        }
      }
      check(step);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << keys << " keys";
  EXPECT_GT(keys, 500000u);
}

TEST(ChordNode, RoutingTableIsDistinctSortedAndDropsOwnId) {
  ChordNode me(0, 1000);
  ChordNode a(1, 1100), b(2, 1300), c(3, 500);
  me.set_successors({NodeRef{&a, 1100}, NodeRef{&b, 1300}, NodeRef{&a, 1100},
                     NodeRef{}, me.self_ref()});
  me.set_finger(0, NodeRef{&a, 1100});
  me.set_finger(5, NodeRef{&c, 500});          // wraps: farthest entry
  me.set_finger(9, NodeRef{&c, 1300});         // stale tie with b
  me.set_finger(11, NodeRef{&b, me.id()});     // stale, at my id
  std::vector<std::pair<ChordNode*, Id>> got;
  for (const NodeRef& r : me.routing_table()) got.emplace_back(r.node, r.id);
  const std::vector<std::pair<ChordNode*, Id>> want{
      {&a, 1100}, {&b, 1300}, {&c, 1300}, {&c, 500}};
  EXPECT_EQ(got, want);
}

TEST(RingDeathTest, SecondNodeOnOneHostAborts) {
  TestOverlay o(4);
  o.ring->create_node(2);
  EXPECT_DEATH(o.ring->create_node_with_id(2, 12345), "already runs a node");
}

TEST(Ring, BootstrapBuildsCorrectNeighbors) {
  TestOverlay o(32);
  for (HostId h = 0; h < 32; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto nodes = o.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ChordNode* n = nodes[i];
    ChordNode* succ = nodes[(i + 1) % nodes.size()];
    ChordNode* pred = nodes[(i + nodes.size() - 1) % nodes.size()];
    EXPECT_EQ(n->successor().node, succ);
    EXPECT_EQ(n->predecessor().node, pred);
  }
}

TEST(Ring, SuccessorListHasDepth) {
  TestOverlay o(40);
  for (HostId h = 0; h < 40; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  for (ChordNode* n : o.ring->alive_nodes()) {
    EXPECT_EQ(n->successor_list().size(), ChordNode::kSuccessors);
  }
}

TEST(Ring, OracleSuccessorWrapsAround) {
  TestOverlay o(8);
  for (HostId h = 0; h < 8; ++h) o.ring->create_node(h);
  auto nodes = o.ring->alive_nodes();
  Id max_id = 0;
  ChordNode* first = nodes[0];
  for (ChordNode* n : nodes) {
    max_id = std::max(max_id, n->id());
    if (n->id() < first->id()) first = n;
  }
  EXPECT_EQ(o.ring->oracle_successor(max_id + 1), first);
}

TEST(Ring, OraclePredecessorOfExactId) {
  TestOverlay o(8);
  for (HostId h = 0; h < 8; ++h) o.ring->create_node(h);
  auto nodes = o.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  EXPECT_EQ(o.ring->oracle_predecessor(nodes[3]->id()), nodes[2]);
  EXPECT_EQ(o.ring->oracle_predecessor(nodes[3]->id() + 1), nodes[3]);
}

TEST(Ring, FingersPointToIntervalSuccessors) {
  TestOverlay o(64, /*pns=*/false);
  for (HostId h = 0; h < 64; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  for (ChordNode* n : o.ring->alive_nodes()) {
    for (int i = 0; i < kIdBits; ++i) {
      NodeRef f = n->finger_table()[static_cast<std::size_t>(i)];
      ASSERT_TRUE(f.valid());
      EXPECT_EQ(f.node, o.ring->oracle_successor(n->finger_start(i)));
    }
  }
}

TEST(Ring, ProtocolLookupFindsOwner) {
  TestOverlay o(64);
  Rng rng(2);
  for (HostId h = 0; h < 64; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto nodes = o.ring->alive_nodes();
  for (int t = 0; t < 50; ++t) {
    Id key = rng.next();
    ChordNode* expected = o.ring->oracle_successor(key);
    ChordNode* from = nodes[rng.below(nodes.size())];
    NodeRef got;
    int hops = -1;
    o.ring->find_successor(*from, key, [&](NodeRef r, int h) {
      got = r;
      hops = h;
    });
    o.sim.run();
    EXPECT_EQ(got.node, expected) << "key " << key;
    EXPECT_GE(hops, 0);
  }
}

TEST(Ring, LookupHopsLogarithmic) {
  TestOverlay o(256);
  Rng rng(3);
  for (HostId h = 0; h < 256; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto nodes = o.ring->alive_nodes();
  double total_hops = 0;
  int count = 200;
  for (int t = 0; t < count; ++t) {
    Id key = rng.next();
    ChordNode* from = nodes[rng.below(nodes.size())];
    o.ring->find_successor(*from, key,
                           [&](NodeRef, int h) { total_hops += h; });
  }
  o.sim.run();
  // log2(256) = 8; average should be around half that, generously < 10.
  EXPECT_LT(total_hops / count, 10.0);
  EXPECT_GT(total_hops / count, 1.0);
}

TEST(Ring, LookupFromSingleNode) {
  TestOverlay o(4);
  ChordNode& only = o.ring->create_node(0);
  o.ring->bootstrap();
  NodeRef got;
  o.ring->find_successor(only, 12345, [&](NodeRef r, int) { got = r; });
  o.sim.run();
  EXPECT_EQ(got.node, &only);
}

TEST(Ring, ProtocolJoinThenStabilizeConverges) {
  TestOverlay o(24);
  for (HostId h = 0; h < 16; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  ChordNode& gateway = *o.ring->alive_nodes()[0];
  // Join 8 more nodes through the protocol.
  for (HostId h = 16; h < 24; ++h) {
    ChordNode& n = o.ring->create_node(h);
    o.ring->protocol_join(n, gateway, nullptr);
    o.sim.run();
  }
  o.ring->run_stabilization(30, 100 * kMillisecond);
  // After stabilization, every node's successor/predecessor must match
  // the oracle ring.
  auto nodes = o.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ChordNode* succ = nodes[(i + 1) % nodes.size()];
    EXPECT_EQ(nodes[i]->successor().node, succ)
        << "node " << i << " successor diverged";
    ChordNode* pred = nodes[(i + nodes.size() - 1) % nodes.size()];
    EXPECT_EQ(nodes[i]->predecessor().node, pred)
        << "node " << i << " predecessor diverged";
  }
}

TEST(Ring, MaintenanceTrafficIsCounted) {
  TestOverlay o(16);
  for (HostId h = 0; h < 16; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto before = o.ring->maintenance_traffic().messages;
  o.ring->run_stabilization(2, 100 * kMillisecond);
  EXPECT_GT(o.ring->maintenance_traffic().messages, before);
}

TEST(Ring, PnsPrefersLowLatencyFingers) {
  // Matrix topology: host 0 is near hosts 1-4 (1ms) and far from the
  // rest (100ms). PNS fingers of node 0 should prefer near candidates
  // whenever the finger interval offers a choice.
  const std::size_t n = 32;
  std::vector<SimTime> m(n * n, 100 * kMillisecond);
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] = 0;
  for (HostId h = 1; h <= 4; ++h) {
    m[0 * n + h] = m[h * n + 0] = 1 * kMillisecond;
  }
  Simulator sim;
  MatrixLatencyModel topo(n, std::move(m));
  Network net(sim, topo);
  Ring::Options with_pns;
  with_pns.pns = true;
  with_pns.seed = 7;
  Ring ring(net, with_pns);
  for (HostId h = 0; h < n; ++h) ring.create_node(h);
  ring.bootstrap();

  Ring::Options no_pns = with_pns;
  no_pns.pns = false;
  Ring ring2(net, no_pns);
  for (HostId h = 0; h < n; ++h) ring2.create_node(h);
  ring2.bootstrap();

  auto finger_latency_sum = [&](Ring& r) {
    ChordNode* node0 = nullptr;
    for (ChordNode* c : r.alive_nodes()) {
      if (c->host() == 0) node0 = c;
    }
    SimTime total = 0;
    for (const NodeRef& f : node0->finger_table()) {
      if (f.valid()) total += topo.latency(0, f.node->host());
    }
    return total;
  };
  EXPECT_LE(finger_latency_sum(ring), finger_latency_sum(ring2));
}

TEST(Ring, PnsFingersStayInValidInterval) {
  TestOverlay o(64, /*pns=*/true);
  for (HostId h = 0; h < 64; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  for (ChordNode* node : o.ring->alive_nodes()) {
    for (int i = 0; i < kIdBits - 1; ++i) {
      NodeRef f = node->finger_table()[static_cast<std::size_t>(i)];
      if (!f.valid() || f.node == node) continue;
      Id start = node->finger_start(i);
      Id end = node->id() + (Id{1} << (i + 1));
      // Either a true interval candidate, or the fallback successor of
      // the interval start (when the interval is empty of nodes).
      bool in_interval = in_closed_open(f.id, start, end);
      bool is_fallback = f.node == o.ring->oracle_successor(start);
      EXPECT_TRUE(in_interval || is_fallback);
    }
  }
}

TEST(Ring, ProtocolPnsFingerRefreshPrefersCloseCandidates) {
  // Host 0 is 1 ms from hosts 1-5 and 100 ms from everything else.
  // After protocol stabilization with PNS, node 0's fingers should use
  // close candidates whenever its finger interval offers one in the
  // owner's successor list.
  const std::size_t n = 48;
  std::vector<SimTime> m(n * n, 100 * kMillisecond);
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] = 0;
  for (HostId h = 1; h <= 5; ++h) {
    m[0 * n + h] = m[h * n + 0] = 1 * kMillisecond;
  }
  Simulator sim;
  MatrixLatencyModel topo(n, std::move(m));
  Network net(sim, topo);
  Ring::Options opts;
  opts.pns = true;
  opts.seed = 21;
  Ring ring(net, opts);
  for (HostId h = 0; h < n; ++h) ring.create_node(h);
  // Exact neighbours, but strip fingers down to the bare successor so
  // the protocol has to build them.
  for (ChordNode* node : ring.alive_nodes()) ring.fix_neighbors(*node);
  for (ChordNode* node : ring.alive_nodes()) {
    for (int i = 0; i < kIdBits; ++i) node->set_finger(i, node->successor());
  }
  ring.run_stabilization(3 * kIdBits, 50 * kMillisecond);
  // Every refreshed finger must be either in its valid interval or the
  // interval-start's owner (fallback); and fingers must be usable.
  ChordNode* node0 = nullptr;
  for (ChordNode* c : ring.alive_nodes()) {
    if (c->host() == 0) node0 = c;
  }
  ASSERT_NE(node0, nullptr);
  int checked = 0;
  for (int i = 0; i < kIdBits - 1; ++i) {
    NodeRef f = node0->finger_table()[static_cast<std::size_t>(i)];
    if (!f.valid() || f.node == node0) continue;
    Id start = node0->finger_start(i);
    Id end = node0->id() + (Id{1} << (i + 1));
    bool in_interval = in_closed_open(f.id, start, end);
    bool is_fallback = f.node == ring.oracle_successor(start);
    EXPECT_TRUE(in_interval || is_fallback) << "finger " << i;
    ++checked;
  }
  EXPECT_GT(checked, 10);
  // Lookups still resolve correctly with protocol-built PNS fingers.
  Rng rng(22);
  for (int t = 0; t < 20; ++t) {
    Id key = rng.next();
    NodeRef got;
    ring.find_successor(*node0, key, [&](NodeRef r, int) { got = r; });
    sim.run();
    EXPECT_EQ(got.node, ring.oracle_successor(key));
  }
}

TEST(Ring, LeaveRepairsNeighborhood) {
  TestOverlay o(32);
  for (HostId h = 0; h < 32; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto nodes = o.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  ChordNode* victim = nodes[5];
  ChordNode* pred = nodes[4];
  ChordNode* succ = nodes[6];
  o.ring->leave(*victim);
  EXPECT_FALSE(victim->alive());
  EXPECT_EQ(pred->successor().node, succ);
  EXPECT_EQ(succ->predecessor().node, pred);
  EXPECT_EQ(o.ring->alive_count(), 31u);
}

TEST(Ring, RejoinAtChosenSplitPoint) {
  TestOverlay o(32);
  for (HostId h = 0; h < 32; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  auto nodes = o.ring->alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](auto* a, auto* b) { return a->id() < b->id(); });
  ChordNode* victim = nodes[10];
  ChordNode* heavy = nodes[20];
  Id split = heavy->id() - (heavy->id() - nodes[19]->id()) / 2;
  o.ring->leave(*victim);
  o.ring->rejoin(*victim, split);
  EXPECT_TRUE(victim->alive());
  EXPECT_EQ(victim->id(), split);
  EXPECT_EQ(heavy->predecessor().node, victim);
  EXPECT_EQ(victim->successor().node, heavy);
  EXPECT_EQ(o.ring->oracle_successor(split), victim);
}

TEST(Ring, LookupsStillCorrectAfterManyMigrations) {
  TestOverlay o(64);
  Rng rng(5);
  for (HostId h = 0; h < 64; ++h) o.ring->create_node(h);
  o.ring->bootstrap();
  for (int t = 0; t < 20; ++t) {
    auto nodes = o.ring->alive_nodes();
    ChordNode* victim = nodes[rng.below(nodes.size())];
    ChordNode* anchor = nodes[rng.below(nodes.size())];
    if (victim == anchor || !anchor->predecessor().valid()) continue;
    Id split = anchor->predecessor().id +
               clockwise_distance(anchor->predecessor().id, anchor->id()) / 2;
    if (!in_open(split, anchor->predecessor().id, anchor->id())) continue;
    if (o.ring->oracle_successor(split)->id() == split) continue;
    o.ring->leave(*victim);
    o.ring->rejoin(*victim, split);
  }
  o.ring->refresh_all_fingers();
  auto nodes = o.ring->alive_nodes();
  for (int t = 0; t < 50; ++t) {
    Id key = rng.next();
    ChordNode* expected = o.ring->oracle_successor(key);
    NodeRef got;
    o.ring->find_successor(*nodes[rng.below(nodes.size())], key,
                           [&](NodeRef r, int) { got = r; });
    o.sim.run();
    EXPECT_EQ(got.node, expected);
  }
}

// The two-search finger refresh Ring::fix_fingers replaced, over a copy
// of the alive nodes sorted by id: each finger binary-searches its
// interval's successor, and PNS searches again to start its window.
std::array<NodeRef, kIdBits> two_search_fingers(
    const std::vector<ChordNode*>& sorted, const ChordNode& n,
    const Network& net, const Ring::Options& opts) {
  auto successor_index = [&](Id key) -> std::size_t {
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), key,
        [](const ChordNode* a, Id id) { return a->id() < id; });
    if (it == sorted.end()) return 0;
    return static_cast<std::size_t>(it - sorted.begin());
  };
  std::array<NodeRef, kIdBits> fingers;
  const std::size_t ring_size = sorted.size();
  for (int i = 0; i < kIdBits; ++i) {
    Id start = n.finger_start(i);
    ChordNode* best = sorted[successor_index(start)];
    if (opts.pns && i < kIdBits - 1) {
      Id end = n.id() + (Id{1} << (i + 1));
      std::size_t idx = successor_index(start);
      SimTime best_lat = -1;
      ChordNode* choice = nullptr;
      for (int s = 0; s < opts.pns_samples &&
                      static_cast<std::size_t>(s) < ring_size;
           ++s) {
        ChordNode* cand = sorted[(idx + static_cast<std::size_t>(s)) %
                                 ring_size];
        if (!in_closed_open(cand->id(), start, end)) break;
        if (cand == &n) continue;
        SimTime lat = net.latency(n.host(), cand->host());
        if (choice == nullptr || lat < best_lat) {
          choice = cand;
          best_lat = lat;
        }
      }
      if (choice != nullptr) best = choice;
    }
    fingers[static_cast<std::size_t>(i)] = NodeRef{best, best->id()};
  }
  return fingers;
}

// routing_table() as a sort of all 80 slots: the distinct non-null refs
// not at the node's own id, by clockwise distance, then host.
std::vector<NodeRef> sorted_slots_table(const ChordNode& n) {
  std::vector<NodeRef> refs;
  for (auto slots : {n.successor_list(), n.finger_table()}) {
    for (const NodeRef& r : slots) {
      if (r.node != nullptr && r.id != n.id()) refs.push_back(r);
    }
  }
  std::sort(refs.begin(), refs.end(), [&](const NodeRef& a, const NodeRef& b) {
    const Id da = a.id - n.id(), db = b.id - n.id();
    return da != db ? da < db : a.node->host() < b.node->host();
  });
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  return refs;
}

TEST(Ring, FixFingersMatchTwoSearchReference) {
  // Every finger and routing table after bootstrap, leave + rejoin at a
  // split point, fail, a short move, and a restart of the crashed node
  // (each followed by refresh_all_fingers) must equal the reference's, on
  // uniform ids and on a band of nodes a few thousand ids apart (what
  // migration leaves in front of a heavy node), with PNS off and on.
  // After a short move, every even finger slot gets its pre-move ref
  // back, as a fix-fingers round leaves a table half refreshed: the
  // moved node then sits in neighbouring slots under two ids.
  struct Pns {
    bool on;
    int samples;
  };
  std::size_t fingers = 0, tables = 0, mismatches = 0;
  for (std::size_t size : {1, 2, 3, 17, 256, 1740}) {
    for (bool band : {false, true}) {
      for (Pns pns : {Pns{false, 16}, Pns{true, 1}, Pns{true, 16}}) {
        DelaySpaceModel::Options topo_opts;
        topo_opts.hosts = std::max<std::size_t>(size, 2);
        topo_opts.seed = size + 3;
        Simulator sim;
        DelaySpaceModel topo(topo_opts);
        Network net(sim, topo);
        Ring::Options opts;
        opts.pns = pns.on;
        opts.pns_samples = pns.samples;
        opts.seed = size * 31 + (band ? 1 : 0);
        Ring ring(net, opts);
        Rng rng(size * 7 + (band ? 5 : 0));
        const std::size_t banded = band ? size / 4 : 0;
        Id at = rng.next();
        for (HostId h = 0; h < size; ++h) {
          if (h < banded) {
            ring.create_node_with_id(h, at);
            at += 2000 + rng.below(4000);
          } else {
            ring.create_node(h);
          }
        }
        ring.bootstrap();
        std::string state = "bootstrap";
        auto fail_once = [&](const std::string& what) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << size << " nodes, band " << band << ", pns "
                          << pns.on << "/" << pns.samples << ", " << state
                          << ": " << what;
          }
        };
        auto check_tables = [&]() {
          for (ChordNode* n : ring.alive_nodes()) {
            ++tables;
            const std::span<const NodeRef> got = n->routing_table();
            const std::vector<NodeRef> want = sorted_slots_table(*n);
            if (!std::equal(got.begin(), got.end(), want.begin(),
                            want.end())) {
              fail_once("routing table of host " + std::to_string(n->host()));
            }
          }
        };
        auto check = [&]() {
          std::vector<ChordNode*> sorted = ring.alive_nodes();
          std::sort(sorted.begin(), sorted.end(),
                    [](auto* a, auto* b) { return a->id() < b->id(); });
          for (ChordNode* n : sorted) {
            const auto want = two_search_fingers(sorted, *n, net, opts);
            for (int i = 0; i < kIdBits; ++i) {
              ++fingers;
              if (n->finger_table()[static_cast<std::size_t>(i)] !=
                  want[static_cast<std::size_t>(i)]) {
                fail_once("finger " + std::to_string(i) + " of host " +
                          std::to_string(n->host()));
              }
            }
          }
          check_tables();
        };
        // An id strictly between a and b that no node holds, or nothing.
        auto between = [&](Id a, Id b) -> std::optional<Id> {
          const Id mid = a + clockwise_distance(a, b) / 2;
          if (!in_open(mid, a, b) || ring.oracle_successor(mid)->id() == mid) {
            return std::nullopt;
          }
          return mid;
        };
        check();
        ChordNode* crashed = nullptr;
        const int steps = size >= 1000 ? 4 : 12;
        for (int step = 0; step < steps && ring.alive_count() > 2; ++step) {
          const std::vector<ChordNode*> alive = ring.alive_nodes();
          ChordNode& v = *alive[rng.below(alive.size())];
          if (step % 4 == 3) {
            // The crashed node restarts just past its old id: successor
            // lists that held it get it back in the same slot, under a
            // new id.
            const auto to = between(
                crashed->id(), ring.oracle_successor(crashed->id())->id());
            if (!to) continue;
            ring.rejoin(*crashed, *to);
            state = "restart after crash, step " + std::to_string(step);
          } else if (step % 4 == 0) {
            // Migration: v leaves and rejoins halfway into a heavy
            // node's range (a band node's range when there is a band).
            ChordNode& heavy =
                *alive[rng.below(banded > 1 ? banded : alive.size())];
            if (&heavy == &v) continue;
            ring.leave(v);
            const auto split = between(heavy.predecessor().id, heavy.id());
            ring.rejoin(v, split ? *split : v.id());
            state = "leave + rejoin, step " + std::to_string(step);
          } else if (step % 4 == 1) {
            ring.fail(v);
            crashed = &v;
            state = "fail, step " + std::to_string(step);
          } else {
            std::vector<std::array<NodeRef, kIdBits>> before;
            for (const auto* n : alive) {
              std::array<NodeRef, kIdBits> f;
              std::copy(n->finger_table().begin(), n->finger_table().end(),
                        f.begin());
              before.push_back(f);
            }
            const auto to = between(v.id(), v.successor().id);
            if (!to) continue;
            ring.leave(v);
            ring.rejoin(v, *to);
            ring.refresh_all_fingers();
            state = "short move, step " + std::to_string(step);
            check();
            for (std::size_t k = 0; k < alive.size(); ++k) {
              if (!alive[k]->alive()) continue;
              for (int i = 0; i < kIdBits; i += 2) {
                alive[k]->set_finger(i, before[k][static_cast<std::size_t>(i)]);
              }
            }
            state = "half-refreshed tables, step " + std::to_string(step);
            check_tables();
          }
          ring.refresh_all_fingers();
          check();
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << fingers << " fingers and "
                            << tables << " tables";
  EXPECT_GT(fingers, 2000000u);
}

TEST(Ring, NodeIdsDeterministicPerSeed) {
  TestOverlay a(8, false, 42), b(8, false, 42), c(8, false, 43);
  ChordNode& na = a.ring->create_node(0);
  ChordNode& nb = b.ring->create_node(0);
  ChordNode& nc = c.ring->create_node(0);
  EXPECT_EQ(na.id(), nb.id());
  EXPECT_NE(na.id(), nc.id());
}

}  // namespace
}  // namespace lmk
