// Tests for the Chord substrate: node state, oracle construction,
// protocol lookups, join + stabilization convergence, PNS, and dynamic
// membership repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
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
