#include "chord/ring.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lmk {

Ring::Ring(Network& net, Options opts)
    : net_(net), opts_(opts), host_taken_(net.hosts(), false) {}

ChordNode& Ring::create_node(HostId host) {
  return create_node_with_id(host, node_id_for_host(host, opts_.seed));
}

ChordNode& Ring::create_node_with_id(HostId host, Id id) {
  LMK_CHECK_MSG(host < net_.hosts(),
                "host %llu for node %016llx outside topology of %zu hosts",
                static_cast<unsigned long long>(host),
                static_cast<unsigned long long>(id), net_.hosts());
  LMK_CHECK_MSG(!host_taken_[host],
                "host %llu for node %016llx already runs a node",
                static_cast<unsigned long long>(host),
                static_cast<unsigned long long>(id));
  host_taken_[host] = true;
  nodes_.push_back(std::make_unique<ChordNode>(host, id));
  ChordNode& n = *nodes_.back();
  insert_sorted(n);
  return n;
}

std::vector<ChordNode*> Ring::alive_nodes() const {
  std::vector<ChordNode*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (n->alive()) out.push_back(n.get());
  }
  return out;
}

void Ring::insert_sorted(ChordNode& n) {
  const auto pos = std::lower_bound(ids_.begin(), ids_.end(), n.id());
  // Identifier collisions would make ownership ambiguous; with random
  // 64-bit ids this is effectively impossible, so treat it as a bug.
  LMK_CHECK_MSG(pos == ids_.end() || *pos != n.id(),
                "id collision on %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  sorted_.insert(sorted_.begin() + (pos - ids_.begin()), &n);
  ids_.insert(pos, n.id());
}

void Ring::remove_sorted(ChordNode& n) {
  const auto pos = std::lower_bound(ids_.begin(), ids_.end(), n.id());
  const auto it = sorted_.begin() + (pos - ids_.begin());
  LMK_CHECK_MSG(pos != ids_.end() && *it == &n,
                "node %016llx missing from alive index at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  sorted_.erase(it);
  ids_.erase(pos);
}

std::size_t Ring::sorted_index_of_successor(Id key) const {
  LMK_CHECK(!ids_.empty());
  const auto pos = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (pos == ids_.end()) return 0;  // wrap to the smallest id
  return static_cast<std::size_t>(pos - ids_.begin());
}

ChordNode* Ring::oracle_successor(Id key) const {
  return sorted_[sorted_index_of_successor(key)];
}

ChordNode* Ring::oracle_predecessor(Id key) const {
  std::size_t idx = sorted_index_of_successor(key);
  std::size_t n = sorted_.size();
  // The successor of `key` owns it; its predecessor is the previous node,
  // unless `key` exactly equals a node id, in which case that node's
  // *ring* predecessor still precedes the key.
  return sorted_[(idx + n - 1) % n];
}

std::vector<NodeRef> Ring::successor_list_from(std::size_t idx,
                                               ChordNode* skip) const {
  std::vector<NodeRef> list;
  std::size_t n = sorted_.size();
  for (std::size_t step = 0; step < n && list.size() < ChordNode::kSuccessors;
       ++step) {
    ChordNode* cand = sorted_[(idx + step) % n];
    if (cand == skip) continue;
    list.push_back(NodeRef{cand, cand->id()});
  }
  return list;
}

void Ring::fix_neighbors(ChordNode& n) {
  LMK_CHECK_MSG(n.alive(), "fix_neighbors on dead node %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  std::size_t n_count = sorted_.size();
  std::size_t idx = sorted_index_of_successor(n.id());
  LMK_CHECK_MSG(sorted_[idx] == &n,
                "alive index out of sync for node %016llx",
                static_cast<unsigned long long>(n.id()));
  ChordNode* pred = sorted_[(idx + n_count - 1) % n_count];
  if (pred == &n) {
    // Singleton ring: a node is its own predecessor and successor.
    n.set_predecessor(n.self_ref());
    n.set_successors({});
    return;
  }
  n.set_predecessor(NodeRef{pred, pred->id()});
  n.set_successors(successor_list_from((idx + 1) % n_count, &n));
}

void Ring::fix_fingers(ChordNode& n) {
  LMK_CHECK_MSG(n.alive(), "fix_fingers on dead node %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  // Walk the ring clockwise from n. Rank c in [1, size) is the c-th node
  // after n; rank size is n itself, the successor of every finger start
  // past the last other node. Distances from n grow with the rank, and
  // finger i's interval [2^i, 2^(i+1)) follows finger i-1's, so one
  // cursor that only moves forward finds every interval's successor.
  const std::size_t size = ids_.size();
  const std::size_t self = sorted_index_of_successor(n.id());
  LMK_DCHECK(sorted_[self] == &n);
  const Id x = n.id();
  auto slot = [&](std::size_t c) {
    const std::size_t j = self + c;
    return j < size ? j : j - size;
  };
  auto dist = [&](std::size_t c) { return ids_[slot(c)] - x; };
  int i = 0;
  if (size > 1) {
    // Intervals that end at or before the successor hold no node.
    const NodeRef succ{sorted_[slot(1)], ids_[slot(1)]};
    for (; i < kIdBits - 1 && (Id{2} << i) <= dist(1); ++i) {
      n.set_finger(i, succ);
    }
  }
  const std::size_t samples =
      static_cast<std::size_t>(std::max(opts_.pns_samples, 0));
  std::size_t c = 1;
  for (; i < kIdBits; ++i) {
    const Id reach = Id{1} << i;
    if (c < size && dist(c) < reach) {
      // Gallop to the first rank at distance >= reach, keeping
      // dist(lo) < reach and hi == size or dist(hi) >= reach.
      std::size_t lo = c, hi = c + 1, step = 1;
      while (hi < size && dist(hi) < reach) {
        lo = hi;
        step *= 2;
        hi = std::min(lo + step, size);
      }
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (dist(mid) < reach) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      c = hi;
    }
    ChordNode* best = c < size ? sorted_[slot(c)] : &n;
    if (opts_.pns && i < kIdBits - 1) {
      // Any node at distance [2^i, 2^(i+1)) is a valid finger-i candidate;
      // examine up to pns_samples of them and keep the closest by latency.
      SimTime best_lat = -1;
      ChordNode* choice = nullptr;
      for (const std::size_t end = std::min(c + samples, size);
           c < end && dist(c) < reach << 1; ++c) {
        ChordNode* cand = sorted_[slot(c)];
        SimTime lat = net_.latency(n.host(), cand->host());
        if (choice == nullptr || lat < best_lat) {
          choice = cand;
          best_lat = lat;
        }
      }
      if (choice != nullptr) best = choice;
    }
    n.set_finger(i, NodeRef{best, best->id()});
  }
}

void Ring::bootstrap() {
  for (ChordNode* n : sorted_) fix_neighbors(*n);
  for (ChordNode* n : sorted_) fix_fingers(*n);
}

void Ring::refresh_all_fingers() {
  for (ChordNode* n : sorted_) fix_fingers(*n);
}

// lmk-handler
// Protocol section: everything from rpc() through stabilize() runs
// inside message deliveries, so the handler-discipline lints apply —
// no ring-oracle reads, no shared RNG draws, no raw simulator
// scheduling. The oracle half above (bootstrap, fix_neighbors,
// fix_fingers, ...) and the drivers below (run_stabilization,
// leave/fail/rejoin) are deliberately outside the region: they model
// test-harness omniscience, not node behavior.
void Ring::rpc(HostId from, ChordNode& to, std::function<void(ChordNode&)> fn) {
  ChordNode* target = &to;
  std::uint32_t inc = to.incarnation();
  net_.send(from, to.host(), opts_.control_message_bytes,
            [target, inc, fn = std::move(fn)]() {
              if (target->alive() && target->incarnation() == inc) {
                fn(*target);
              }
            },
            &maintenance_);
}

namespace {

struct PredSearch {
  Id key;
  LookupCallback done;
};

void pred_step(Ring& ring, ChordNode& cur, std::shared_ptr<PredSearch> st,
               int hops) {
  NodeRef succ = cur.successor();
  if (succ.node == &cur || in_open_closed(st->key, cur.id(), succ.id)) {
    st->done(cur.self_ref(), hops);
    return;
  }
  NodeRef hop = cur.next_hop(st->key);
  if (hop.node == &cur) {
    // Routing table is stale enough that nothing precedes the key even
    // though the successor test failed; fall forward along the ring.
    hop = succ;
  }
  ring.rpc(cur.host(), *hop.node, [&ring, st, hops](ChordNode& next) {
    pred_step(ring, next, st, hops + 1);
  });
}

}  // namespace

void Ring::find_predecessor(ChordNode& from, Id key, LookupCallback done) {
  auto st = std::make_shared<PredSearch>(PredSearch{key, std::move(done)});
  pred_step(*this, from, st, 0);
}

void Ring::find_successor(ChordNode& from, Id key, LookupCallback done) {
  find_predecessor(from, key,
                   [done = std::move(done)](NodeRef pred, int hops) {
                     done(pred.node->successor(), hops + 1);
                   });
}

void Ring::protocol_join(ChordNode& n, ChordNode& gateway,
                         std::function<void()> done) {
  LMK_CHECK_MSG(n.alive(), "protocol_join of dead node %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  LMK_CHECK_MSG(&n != &gateway,
                "node %016llx cannot join through itself",
                static_cast<unsigned long long>(n.id()));
  find_successor(gateway, n.id(), [this, &n, done = std::move(done)](
                                      NodeRef owner, int /*hops*/) {
    if (owner.node == &n) {
      // The oracle index already contains n, so the lookup may resolve to
      // n itself; its true protocol successor is the next node along.
      owner = n.successor().valid() ? n.successor() : owner;
    }
    // Atomic hand-off at the successor: the joiner takes over the
    // successor's old predecessor and slots itself in, so the ring stays
    // routable even before the next stabilization round. The successor's
    // routing state also seeds the joiner's successor list and fingers
    // (a standard join optimization; fix-fingers refines them later).
    rpc(n.host(), *owner.node, [this, &n, done](ChordNode& succ) {
      NodeRef old_pred = succ.predecessor();
      std::vector<NodeRef> list;
      list.push_back(NodeRef{&succ, succ.id()});
      for (const NodeRef& r : succ.successor_list()) {
        if (r.valid() && r.node != &n &&
            list.size() < ChordNode::kSuccessors) {
          list.push_back(r);
        }
      }
      if (!old_pred.valid() || in_open(n.id(), old_pred.id, succ.id())) {
        succ.set_predecessor(NodeRef{&n, n.id()});
        if (old_pred.valid()) n.set_predecessor(old_pred);
      }
      rpc(succ.host(), n, [this, list = std::move(list), done](
                              ChordNode& me) mutable {
        NodeRef pred = me.predecessor();
        me.set_successors(std::move(list));
        for (int i = 0; i < kIdBits; ++i) {
          NodeRef f = me.successor();
          // Seed with the successor's view shifted onto our intervals.
          me.set_finger(i, f);
        }
        // Tell the old predecessor its successor changed so queries
        // routed through it reach the joiner immediately.
        if (pred.valid()) {
          rpc(me.host(), *pred.node, [&me](ChordNode& p) {
            std::vector<NodeRef> plist;
            plist.push_back(NodeRef{&me, me.id()});
            for (const NodeRef& r : p.successor_list()) {
              if (r.valid() && r.node != &me &&
                  plist.size() < ChordNode::kSuccessors) {
                plist.push_back(r);
              }
            }
            p.set_successors(std::move(plist));
          });
        }
        if (done) done();
      });
    });
  });
}

void Ring::stabilize(ChordNode& n) {
  if (!n.alive()) return;
  NodeRef succ = n.successor();
  if (succ.node == &n) return;  // singleton
  // Ask the successor for its predecessor and successor list; then adopt
  // a closer successor if one appeared, and notify.
  rpc(n.host(), *succ.node, [this, &n](ChordNode& s) {
    NodeRef x = s.predecessor();
    std::vector<NodeRef> new_list;
    new_list.push_back(NodeRef{&s, s.id()});
    for (const NodeRef& r : s.successor_list()) {
      if (r.valid() && r.node != &n &&
          new_list.size() < ChordNode::kSuccessors) {
        new_list.push_back(r);
      }
    }
    bool adopt = x.valid() && x.node != &n && in_open(x.id, n.id(), s.id());
    rpc(s.host(), n, [this, x, adopt, new_list = std::move(new_list)](
                         ChordNode& me) mutable {
      if (adopt) {
        new_list.insert(new_list.begin(), x);
        if (new_list.size() > ChordNode::kSuccessors) {
          new_list.resize(ChordNode::kSuccessors);
        }
      }
      me.set_successors(std::move(new_list));
      NodeRef cur_succ = me.successor();
      if (cur_succ.node == &me) return;
      rpc(me.host(), *cur_succ.node, [&me](ChordNode& s2) {
        NodeRef pred = s2.predecessor();
        if (!pred.valid() || in_open(me.id(), pred.id, s2.id())) {
          s2.set_predecessor(NodeRef{&me, me.id()});
        }
      });
    });
  });
  // Refresh one finger per round (round-robin across calls), with
  // protocol-level PNS: the interval's owner reports its successor list
  // and the refresher keeps the latency-closest in-interval candidate
  // (Dabek et al.'s PNS(16) sampling).
  int i = n.take_next_finger_to_fix();
  find_successor(n, n.finger_start(i), [this, &n, i](NodeRef owner,
                                                     int /*hops*/) {
    if (owner.node == &n) return;
    if (!opts_.pns || i >= kIdBits - 1) {
      n.set_finger(i, owner);
      return;
    }
    rpc(n.host(), *owner.node, [this, &n, i](ChordNode& o) {
      Id start = n.finger_start(i);
      Id end = n.id() + (Id{1} << (i + 1));
      NodeRef best{&o, o.id()};
      SimTime best_lat = net_.latency(n.host(), o.host());
      int sampled = 0;
      for (const NodeRef& r : o.successor_list()) {
        if (!r.valid() || r.node == &n) continue;
        if (!in_closed_open(r.id, start, end)) break;
        if (++sampled > opts_.pns_samples) break;
        SimTime lat = net_.latency(n.host(), r.node->host());
        if (lat < best_lat) {
          best_lat = lat;
          best = r;
        }
      }
      rpc(o.host(), n, [i, best](ChordNode& me) { me.set_finger(i, best); });
    });
  });
}
// lmk-handler-end

void Ring::run_stabilization(int rounds, SimTime period) {
  for (int r = 0; r < rounds; ++r) {
    sim().schedule_after(period * (r + 1), [this]() {
      for (const auto& n : nodes_) {
        if (n->alive()) stabilize(*n);
      }
    });
  }
  sim().run();
}

void Ring::leave(ChordNode& n) {
  LMK_CHECK_MSG(n.alive(), "leave of dead node %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  LMK_CHECK_MSG(sorted_.size() > 1,
                "node %016llx cannot leave a singleton ring at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  std::size_t idx = sorted_index_of_successor(n.id());
  LMK_CHECK_MSG(sorted_[idx] == &n,
                "alive index out of sync for leaving node %016llx",
                static_cast<unsigned long long>(n.id()));
  remove_sorted(n);
  n.kill();
  // Repair the neighbourhood whose successor lists / predecessor
  // pointers referenced n: its kSuccessors ring predecessors plus the
  // node that now owns its position.
  std::size_t n_count = sorted_.size();
  std::size_t repair = std::min(n_count, ChordNode::kSuccessors + 1);
  for (std::size_t back = 0; back < repair; ++back) {
    std::size_t j = (idx + n_count - back) % n_count;
    fix_neighbors(*sorted_[j]);
  }
}

void Ring::fail(ChordNode& n) {
  LMK_CHECK_MSG(n.alive(), "fail of already-dead node %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<long long>(sim().now()));
  LMK_CHECK_MSG(sorted_.size() > 1,
                "node %016llx cannot fail out of a singleton ring",
                static_cast<unsigned long long>(n.id()));
  remove_sorted(n);
  n.kill();
}

void Ring::rejoin(ChordNode& n, Id new_id) {
  LMK_CHECK_MSG(!n.alive(),
                "rejoin of live node %016llx as %016llx at t=%lld",
                static_cast<unsigned long long>(n.id()),
                static_cast<unsigned long long>(new_id),
                static_cast<long long>(sim().now()));
  n.revive(new_id);
  insert_sorted(n);
  std::size_t n_count = sorted_.size();
  std::size_t idx = sorted_index_of_successor(new_id);
  LMK_CHECK_MSG(sorted_[idx] == &n,
                "alive index out of sync for rejoined node %016llx",
                static_cast<unsigned long long>(new_id));
  // Repair the new node, its successor (whose predecessor pointer must
  // now reference n), and the kSuccessors ring predecessors whose
  // successor lists gain n.
  std::size_t repair = std::min(n_count, ChordNode::kSuccessors + 2);
  for (std::size_t back = 0; back < repair; ++back) {
    std::size_t j = (idx + 1 + n_count - back) % n_count;
    fix_neighbors(*sorted_[j]);
  }
  fix_fingers(n);
}

}  // namespace lmk
