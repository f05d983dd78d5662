// Range-query representation and QuerySplit (paper §3.3, Algorithm 4).
//
// A near-neighbour query (q, r) in the metric space becomes a range
// query: the k-cube of edge 2r centred on q's index point, clamped to
// the index-space boundary. The query carries a k-d prefix — the code of
// the smallest cuboid enclosing its region — which doubles as its Chord
// routing key (after adding the scheme's rotation offset).
//
// Invariant maintained everywhere: a query's region lies inside its
// prefix cuboid. QuerySplit preserves it; the surrogate-refinement in
// router.cpp is written to preserve it too (see the note there about the
// paper's Algorithm 5).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "lph/lph.hpp"
#include "net/latency_model.hpp"

namespace lmk {

/// The routing-relevant description of one index scheme, shared by every
/// query against that scheme. Owned by the platform's scheme registry.
struct SchemeRouting {
  std::uint32_t scheme_id = 0;
  Boundary boundary;
  /// Space-mapping rotation offset φ (0 = rotation disabled). Cuboid
  /// keys are placed at key + φ on the ring (§3.4).
  Id rotation = 0;
  /// Modeled size of one query message carrying one subquery, from the
  /// paper's byte model: 20 + 4 + (2*2*k + 8 + 1).
  std::uint64_t query_message_bytes = 0;
  /// Result-message header size (paper: 20) and per-entry size (6).
  std::uint64_t result_header_bytes = 20;
  std::uint64_t result_entry_bytes = 6;

  [[nodiscard]] std::size_t dims() const { return boundary.size(); }
};

/// Compute the paper's query-message size for a k-landmark scheme.
[[nodiscard]] inline std::uint64_t query_message_size(std::size_t k,
                                                      std::size_t subqueries =
                                                          1) {
  return 20 + 4 + subqueries * (2 * 2 * k + 8 + 1);
}

/// One (sub)query in flight.
struct RangeQuery {
  const SchemeRouting* scheme = nullptr;
  std::uint64_t qid = 0;       ///< per-run unique query id
  HostId origin = 0;           ///< host that issued the query
  Region region;               ///< clamped region, inside the prefix cuboid
  Prefix prefix;               ///< enclosing-cuboid code + valid length
  int hops = 0;                ///< network hops taken so far
  /// The query's index point (unclamped) — index nodes rank their local
  /// candidates by L∞ distance to it when answering in top-k mode. A
  /// split never changes it, so every subquery of one query shares it.
  std::shared_ptr<const IndexPoint> focus;

  /// Chord key this subquery routes toward: prefix key rotated by φ.
  [[nodiscard]] Id routing_key() const {
    return prefix.key + scheme->rotation;
  }
};

/// Build the initial query for a region: clamp to the boundary (regions
/// outside it snap to the edge, where out-of-boundary entries live),
/// compute the enclosing prefix, and take the focus into the one block
/// the query's subqueries share.
void make_query(const SchemeRouting& scheme, std::uint64_t qid, HostId origin,
                Region region, IndexPoint focus, RangeQuery* out);

/// Split decision for query q at division p, computed without touching
/// the query's region storage: the child count, the split plane, and
/// both children's prefix keys. The keys make the children
/// routable (routing_key = key + rotation) before — or without —
/// materializing them, so the router's descend and shared-next-hop
/// cases move the original query along instead of copying it.
struct QuerySplitPlan {
  int children = 1;    ///< 1 (region fits one half) or 2 (straddles)
  int dim = 0;         ///< dimension the division-p plane cuts
  double mid = 0.0;    ///< plane coordinate in that dimension
  bool upper = false;  ///< children == 1: region lies in the upper half
  int p = 0;           ///< division the plan was computed for
  Id upper_key = 0;    ///< child prefix key with bit p set
  Id lower_key = 0;    ///< child prefix key with bit p clear (== q's)
};

/// Plan the Algorithm 4 split of q at division p (1-based,
/// p == q.prefix.length + 1 in normal use).
[[nodiscard]] QuerySplitPlan plan_query_split(const RangeQuery& q, int p);

/// Apply a one-child plan in place: the prefix descends, the region is
/// untouched (zero allocation).
void descend_query(RangeQuery& q, const QuerySplitPlan& plan);

/// Materialize a two-child plan, consuming q: the lower child steals
/// q's region storage, the upper child copies the region (the split's
/// one allocation), and both share q's focus. Returned upper-first, as
/// in the paper's listing.
[[nodiscard]] std::pair<RangeQuery, RangeQuery> split_query(
    RangeQuery q, const QuerySplitPlan& plan);

}  // namespace lmk
