#include "routing/router.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lmk {
namespace {

// The episode's pieces, solved one at a time in order.
QueryRouter::SolveFn each_piece(QueryRouter::PieceFn solve) {
  LMK_CHECK(solve != nullptr);
  return [solve = std::move(solve)](std::span<const RangeQuery> pieces,
                                    ChordNode& node) {
    for (const RangeQuery& q : pieces) solve(q, node);
  };
}

}  // namespace

QueryRouter::QueryRouter(Ring& ring, SolveFn solve, FanoutFn fanout,
                         SentFn sent)
    : ring_(ring),
      solve_(std::move(solve)),
      fanout_(std::move(fanout)),
      sent_(std::move(sent)) {
  LMK_CHECK(solve_ != nullptr);
  LMK_CHECK(fanout_ != nullptr);
}

QueryRouter::QueryRouter(Ring& ring, PieceFn solve, FanoutFn fanout,
                         SentFn sent)
    : QueryRouter(ring, each_piece(std::move(solve)), std::move(fanout),
                  std::move(sent)) {}

template <typename Fn>
void QueryRouter::episode(ChordNode& at, Fn&& work) {
  if (in_episode_) {
    // Nested call (surrogate refinement forwarding through
    // query_routing): stay in the enclosing episode so its flush batches
    // everything.
    work();
    return;
  }
  in_episode_ = true;
  work();
  if (!local_.empty()) {
    // Every solve happens at the episode's node: only surrogate
    // refinement solves, and it runs where the message was delivered.
    solve_(local_, at);
    local_.clear();
  }
  in_episode_ = false;
  flush(at);
}

void QueryRouter::start(ChordNode& origin_node, RangeQuery q) {
  episode(origin_node,
          [&]() { query_routing(origin_node, std::move(q)); });
}

void QueryRouter::solve_local(RangeQuery q) {
  LMK_CHECK(in_episode_);
  local_.push_back(std::move(q));
}

void QueryRouter::enqueue(NodeRef to, RangeQuery q, bool to_surrogate) {
  LMK_CHECK(to.node != nullptr);
  LMK_CHECK(in_episode_);
  outbox_.emplace_back(to, Parcel{std::move(q), to_surrogate});
}

void QueryRouter::flush(ChordNode& from) {
  LMK_CHECK(!in_episode_);
  // Group parcels by target node; one message per target, sized by the
  // paper's model for n subqueries. Grouping preserves enqueue order.
  std::vector<std::pair<NodeRef, Parcel>> box = std::move(outbox_);
  outbox_.clear();
  while (!box.empty()) {
    ChordNode* target = box.front().first.node;
    std::vector<Parcel> batch;
    std::vector<std::pair<NodeRef, Parcel>> rest;
    for (auto& [to, parcel] : box) {
      if (to.node == target) {
        batch.push_back(std::move(parcel));
      } else {
        rest.emplace_back(to, std::move(parcel));
      }
    }
    box = std::move(rest);

    // An episode handles one incoming message (or one injection), so
    // every parcel in the batch belongs to one query, which pays for
    // the whole message.
    const SchemeRouting& scheme = *batch.front().q.scheme;
    std::uint64_t bytes =
        query_message_size(scheme.dims(), batch.size());
    for (Parcel& p : batch) {
      LMK_CHECK(p.q.qid == batch.front().q.qid);
      p.q.hops += 1;
      LMK_CHECK(p.q.hops <= kHopLimit);
    }
    if (sent_) sent_(batch.front().q.qid, bytes);

    ChordNode* sender = &from;
    std::uint32_t sender_inc = from.incarnation();
    std::uint32_t target_inc = target->incarnation();
    ring_.net().send(
        from.host(), target->host(), bytes,
        [this, target, target_inc, sender, sender_inc,
         batch = std::move(batch)]() mutable {
          if (target->alive() && target->incarnation() == target_inc) {
            episode(*target, [&]() {
              for (Parcel& p : batch) process(*target, std::move(p));
            });
            return;
          }
          // The target departed (or rejoined under a new identifier)
          // while the message was in flight. Retry from the sender,
          // whose stale routing entry is now detectably invalid.
          if (sender->alive() && sender->incarnation() == sender_inc) {
            episode(*sender, [&]() {
              for (Parcel& p : batch) {
                query_routing(*sender, std::move(p.q));
              }
            });
          } else {
            for (Parcel& p : batch) fanout_(p.q.qid, -1);
          }
        },
        &traffic_);
  }
}

void QueryRouter::process(ChordNode& at, Parcel parcel) {
  if (parcel.to_surrogate) {
    surrogate_refine(at, std::move(parcel.q));
  } else {
    query_routing(at, std::move(parcel.q));
  }
}

void QueryRouter::query_routing(ChordNode& at, RangeQuery q) {
  LMK_CHECK(q.hops <= kHopLimit);
  auto dispatch = [&](RangeQuery&& sq) {
    NodeRef n = at.next_hop(sq.routing_key());
    if (n.node == &at) {
      // This node is the predecessor of the prefix key: hand the query
      // to the surrogate (our successor) for refinement.
      enqueue(at.successor(), std::move(sq), /*to_surrogate=*/true);
    } else {
      enqueue(n, std::move(sq), /*to_surrogate=*/false);
    }
  };
  if (q.prefix.length == kIdBits) {
    dispatch(std::move(q));
    return;
  }
  // Plan the split first: the children's routing keys come from the
  // plan, so the descend and shared-next-hop cases ship the original
  // query onward without ever copying its region or focus.
  QuerySplitPlan plan = plan_query_split(q, q.prefix.length + 1);
  if (plan.children == 1) {
    // Region fits one half: descend without splitting (the paper's
    // listing assumes a two-way split; a single-child descend is the
    // degenerate case after surrogate pruning).
    descend_query(q, plan);
    dispatch(std::move(q));
    return;
  }
  const Id rot = q.scheme->rotation;
  NodeRef n1 = at.next_hop(plan.upper_key + rot);
  NodeRef n2 = at.next_hop(plan.lower_key + rot);
  if (n1.node == n2.node) {
    // Both halves share the next hop: ship the larger query onward
    // and let a later node split it (Alg. 3 lines 8-9).
    dispatch(std::move(q));
    return;
  }
  fanout_(q.qid, +1);
  auto [upper, lower] = split_query(std::move(q), plan);
  dispatch(std::move(upper));  // upper first, as in the paper's listing
  dispatch(std::move(lower));
}

void QueryRouter::surrogate_refine(ChordNode& me, RangeQuery q) {
  LMK_CHECK(q.hops <= kHopLimit);
  if (!me.owns(q.routing_key())) {
    // Stale delivery (the sender's successor pointer lagged a
    // membership change): keep routing from here.
    query_routing(me, std::move(q));
    return;
  }
  // Virtual identifier: undo the scheme rotation so prefix logic works
  // on the unrotated k-d tree.
  const Id vid = me.id() - q.scheme->rotation;
  RangeQuery cur = std::move(q);
  while (true) {
    if (cur.prefix.length == kIdBits ||
        !same_prefix(cur.prefix.key, vid, cur.prefix.length)) {
      // Either the cuboid is a single leaf owned by me, or my identifier
      // lies beyond the cuboid's key span — every remaining key of the
      // cuboid falls in (predecessor, me]: solve the whole query here.
      solve_local(std::move(cur));
      return;
    }
    int p = cur.prefix.length + 1;
    QuerySplitPlan plan = plan_query_split(cur, p);
    const int vbit = get_bit(vid, p);
    if (plan.children == 1) {
      descend_query(cur, plan);
      int qbit = get_bit(cur.prefix.key, p);
      if (qbit == vbit) continue;  // the child containing my identifier
      if (qbit == 0) {
        // Child cuboid's keys all precede my identifier (and follow my
        // predecessor): fully covered, solve locally.
        solve_local(std::move(cur));
      } else {
        // Child cuboid's keys all exceed my identifier: forward it
        // (Alg. 5 line 17) — QueryRouting runs locally; the episode's
        // flush batches siblings bound for the same next hop.
        query_routing(me, std::move(cur));
      }
      return;
    }
    fanout_(cur.qid, +1);
    auto [upper, lower] = split_query(std::move(cur), plan);
    // Matching the two-child walk order of the paper's listing (upper
    // first): the half containing my identifier refines further; its
    // sibling is solved locally (keys below vid) or forwarded (above).
    if (vbit == 1) {
      solve_local(std::move(lower));
      cur = std::move(upper);
    } else {
      query_routing(me, std::move(upper));
      cur = std::move(lower);
    }
  }
}

}  // namespace lmk
