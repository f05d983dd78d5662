// Range-query resolving and routing over the Chord embedded trees
// (paper §3.3, Algorithms 3 and 5).
//
// QueryRouting delivers a subquery toward the *predecessor* of its
// prefix key, splitting it only when the two halves would take different
// next hops; once the predecessor is reached, the subquery is handed to
// the surrogate (the successor, i.e. the owner of the prefix key), which
// progressively prunes it: parts of the cuboid key span covered by the
// surrogate are solved locally, parts beyond its identifier are
// forwarded onward with QueryRouting.
//
// Note on Algorithm 5: the paper's listing extends the query prefix along
// me.id (lines 10-11) without narrowing the region, which loses results
// whenever the region still straddles one of the skipped split planes
// (the spilled part would be solved against a node that does not store
// it). We implement the evidently intended semantics — refine level by
// level: at each level the child cuboid whose keys precede me.id is
// fully covered and solved locally, the child beyond me.id is forwarded,
// and the child containing me.id is refined further. This preserves the
// region-inside-prefix-cuboid invariant and is validated against a
// brute-force owner oracle in tests/routing_test.cpp.
//
// Episodes: one incoming message (or one injection) at one node is one
// routing episode, and the episode is the unit of batching both ways.
// All subqueries the node emits toward the same next hop are shipped as
// ONE message — the paper's byte model (20 + 4 + n·(4k+9)) explicitly
// carries n subqueries per message, and surrogate refinement routinely
// produces several siblings bound for the successor. All pieces the
// node solves locally are handed to the solver in ONE call, after the
// episode's work and before its flush, so the platform answers them
// with one store probe (on balanced-range a refinement solves ~6 pieces
// per message at the same node).
//
// Allocation: a split allocates one block, the upper child's region
// (the lower child takes the parent's, and all subqueries of a query
// share its focus). The flush groups the reused outbox in place, so a
// message allocates one block too, the parcel batch its delivery
// closure owns. Nothing else on the routing path allocates once the
// outbox, the solve list and the event engine have reached their
// high-water capacity.
//
// Rotation (§3.4) is handled by routing on key + φ and comparing
// prefixes against the node's *virtual* identifier id − φ, which maps
// the rotated ring back onto the unrotated k-d prefix tree.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "chord/ring.hpp"
#include "routing/query.hpp"

namespace lmk {

/// Delivery engine for range queries. One router serves all schemes.
class QueryRouter {
 public:
  /// Called once per episode that solved anything locally: `node` must
  /// report every stored entry of the scheme whose index point lies in
  /// any piece's region back to the pieces' origin. The span is
  /// non-empty, and its pieces share one qid (an episode handles one
  /// query). The callback is also responsible for completion
  /// accounting: each piece closes one outstanding subquery.
  using SolveFn =
      std::function<void(std::span<const RangeQuery> pieces, ChordNode& node)>;

  /// One piece at a time: the form perfbench/program.hpp's routing
  /// replay still passes. Adapted to SolveFn; nothing else uses it.
  using PieceFn = std::function<void(const RangeQuery& q, ChordNode& node)>;

  /// Called whenever one subquery becomes `n` subqueries (n >= 1 at
  /// every split/descend; n == 1 means the subquery survives). Lets the
  /// platform keep an outstanding-subquery count per query id.
  using FanoutFn = std::function<void(std::uint64_t qid, int delta)>;

  /// Optional per-query accounting: called for every query message sent
  /// with the query id and modeled byte size.
  using SentFn = std::function<void(std::uint64_t qid, std::uint64_t bytes)>;

  QueryRouter(Ring& ring, SolveFn solve, FanoutFn fanout, SentFn sent = {});
  QueryRouter(Ring& ring, PieceFn solve, FanoutFn fanout, SentFn sent = {});

  /// Inject a query at its origin node (Algorithm 3 runs locally first).
  /// The caller must have registered the query with the completion
  /// tracker (fanout(qid, +1)) before calling.
  void start(ChordNode& origin_node, RangeQuery q);

  /// Query-delivery traffic (paper metric 4a) accumulated so far.
  [[nodiscard]] const TrafficCounter& traffic() const { return traffic_; }

 private:
  /// Safety valve: routing a single subquery over more hops than this
  /// aborts (indicates a routing-logic bug).
  static constexpr int kHopLimit = 512;

  /// One batched subquery en route to a node.
  struct Parcel {
    RangeQuery q;
    bool to_surrogate;
  };

  void query_routing(ChordNode& at, RangeQuery q);
  void surrogate_refine(ChordNode& at, RangeQuery q);
  /// Keep a fully covered piece for the episode's one solve call.
  void solve_local(RangeQuery q);
  void enqueue(NodeRef to, RangeQuery q, bool to_surrogate);
  void process(ChordNode& at, Parcel parcel);

  /// Run `work` as one message-processing episode at `at`: the pieces
  /// solved locally go to the solver in one call, then all enqueued
  /// parcels are grouped by target and flushed as one message each
  /// (grouped in place: the outbox keeps its capacity).
  template <typename Fn>
  void episode(ChordNode& at, Fn&& work);
  void flush(ChordNode& from);

  Ring& ring_;
  SolveFn solve_;
  FanoutFn fanout_;
  SentFn sent_;
  TrafficCounter traffic_;

  bool in_episode_ = false;
  std::vector<RangeQuery> local_;  ///< this episode's solved pieces
  /// This episode's parcels; flush marks a taken slot's node null.
  std::vector<std::pair<NodeRef, Parcel>> outbox_;
};

}  // namespace lmk
