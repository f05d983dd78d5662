#include "routing/naive.hpp"

#include "common/check.hpp"

namespace lmk {

NaiveRouter::NaiveRouter(Ring& ring, SolveFn solve, FanoutFn fanout,
                         int split_depth, SentFn sent)
    : ring_(ring),
      solve_(std::move(solve)),
      fanout_(std::move(fanout)),
      sent_(std::move(sent)),
      split_depth_(split_depth) {
  LMK_CHECK(solve_ != nullptr);
  LMK_CHECK(fanout_ != nullptr);
  LMK_CHECK(split_depth_ >= 0 && split_depth_ <= kIdBits);
}

void NaiveRouter::start(ChordNode& origin_node, RangeQuery q) {
  // Client-side decomposition: split to the target depth, accumulating
  // the independent subqueries.
  std::vector<RangeQuery> pieces;
  std::vector<RangeQuery> work;
  work.push_back(std::move(q));
  while (!work.empty()) {
    RangeQuery cur = std::move(work.back());
    work.pop_back();
    if (cur.prefix.length >= split_depth_) {
      pieces.push_back(std::move(cur));
      continue;
    }
    QuerySplitPlan plan = plan_query_split(cur, cur.prefix.length + 1);
    if (plan.children == 1) {
      descend_query(cur, plan);  // prefix-only descend, no copies
      work.push_back(std::move(cur));
    } else {
      fanout_(cur.qid, +1);
      auto [upper, lower] = split_query(std::move(cur), plan);
      work.push_back(std::move(upper));
      work.push_back(std::move(lower));
    }
  }
  for (auto& piece : pieces) route(origin_node, std::move(piece));
}

void NaiveRouter::route(ChordNode& at, RangeQuery q) {
  LMK_CHECK(q.hops <= kHopLimit);
  Id key = q.routing_key();
  if (at.owns(key)) {
    walk(at, std::move(q));
    return;
  }
  NodeRef hop = at.next_hop(key);
  if (hop.node == &at) {
    // We are the predecessor: the owner is our successor.
    send(at, at.successor(), std::move(q), Step::kDeliver);
  } else {
    send(at, hop, std::move(q), Step::kRoute);
  }
}

void NaiveRouter::deliver(ChordNode& owner, RangeQuery q) {
  LMK_CHECK(q.hops <= kHopLimit);
  if (!owner.owns(q.routing_key())) {
    route(owner, std::move(q));  // stale hand-off: keep routing
    return;
  }
  walk(owner, std::move(q));
}

void NaiveRouter::walk(ChordNode& at, RangeQuery q) {
  LMK_CHECK(q.hops <= kHopLimit);
  // `at` holds part of the subquery's cuboid key span; report local
  // matches, and continue along the successor chain until the node
  // owning the span's end is reached — one hop per additional owner, no
  // tree sharing (the cost the embedded-tree router avoids).
  KeySpan span = prefix_span(q.prefix.key, q.prefix.length);
  Id span_end = span.hi + q.scheme->rotation;
  if (at.owns(span_end)) {
    solve_(q, at);
    return;
  }
  fanout_(q.qid, +1);
  solve_(q, at);
  send(at, at.successor(), std::move(q), Step::kWalk);
}

void NaiveRouter::send(ChordNode& from, NodeRef to, RangeQuery q, Step step) {
  LMK_CHECK(to.node != nullptr);
  ChordNode* target = to.node;
  ChordNode* sender = &from;
  std::uint32_t target_inc = target->incarnation();
  std::uint32_t sender_inc = from.incarnation();
  q.hops += 1;
  if (sent_) sent_(q.qid, q.scheme->query_message_bytes);
  ring_.net().send(
      from.host(), target->host(), q.scheme->query_message_bytes,
      [this, target, target_inc, sender, sender_inc, step,
       q = std::move(q)]() mutable {
        if (target->alive() && target->incarnation() == target_inc) {
          switch (step) {
            case Step::kRoute:
              route(*target, std::move(q));
              break;
            case Step::kDeliver:
              deliver(*target, std::move(q));
              break;
            case Step::kWalk:
              walk(*target, std::move(q));
              break;
          }
          return;
        }
        if (sender->alive() && sender->incarnation() == sender_inc) {
          route(*sender, std::move(q));
        } else {
          fanout_(q.qid, -1);
        }
      },
      &traffic_);
}

}  // namespace lmk
