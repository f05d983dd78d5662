// Naive range-query baseline (paper §3.3's strawman, MAAN-style).
//
// "A naive approach is to subdivide a range query into many subqueries,
// each of which is covered by only one of the 2^m hypercuboids, and to
// route each subquery to the corresponding index node." A literal 2^m
// decomposition is infeasible, so — like MAAN and SCRAP — the client
// splits the region down to a fixed tree depth, routes every resulting
// subquery independently through Chord (no shared delivery paths), and
// each owner walks its successors over any remainder of the subquery's
// key span it does not cover. Correct, but pays one full O(log N)
// lookup per subquery: the cost the embedded-tree router amortizes.
#pragma once

#include <functional>

#include "chord/ring.hpp"
#include "routing/query.hpp"

namespace lmk {

/// Client-side-decomposition router used as the ablation baseline.
class NaiveRouter {
 public:
  using SolveFn = std::function<void(const RangeQuery&, ChordNode&)>;
  using FanoutFn = std::function<void(std::uint64_t qid, int delta)>;
  using SentFn = std::function<void(std::uint64_t qid, std::uint64_t bytes)>;

  /// `split_depth`: the k-d depth the client decomposes to before
  /// routing; sensible values are around log2(#nodes) + 2.
  NaiveRouter(Ring& ring, SolveFn solve, FanoutFn fanout, int split_depth,
              SentFn sent = {});

  /// Issue the query: decompose locally at the origin, then route each
  /// piece independently. Caller pre-registers one outstanding unit.
  void start(ChordNode& origin_node, RangeQuery q);

  [[nodiscard]] const TrafficCounter& traffic() const { return traffic_; }

 private:
  /// Safety valve: routing one piece over more hops than this aborts
  /// (a routing-logic bug).
  static constexpr int kHopLimit = 512;

  enum class Step { kRoute, kDeliver, kWalk };

  void route(ChordNode& at, RangeQuery q);
  void deliver(ChordNode& owner, RangeQuery q);
  void walk(ChordNode& at, RangeQuery q);
  void send(ChordNode& from, NodeRef to, RangeQuery q, Step step);

  Ring& ring_;
  SolveFn solve_;
  FanoutFn fanout_;
  SentFn sent_;
  TrafficCounter traffic_;
  int split_depth_;
};

}  // namespace lmk
