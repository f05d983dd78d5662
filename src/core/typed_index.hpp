// Typed facade over the index platform: one LandmarkIndex<Space> binds a
// metric space, a landmark mapper and a platform scheme together, giving
// applications the end-to-end flow of the paper:
//
//   insert:  object --map--> index point --LPH+rotation--> owner node
//   query:   (q, r) --map--> k-cube range query --route--> index nodes
//            candidates --true-distance refinement--> final results
//
// The refinement step runs at the querying node: range results from the
// index are a superset (the mapping is contractive, §3.1), so candidates
// are re-checked with the real metric; in top-k mode the querier merges
// the per-node candidate lists and keeps the k nearest, exactly the
// paper's recall protocol (§4.1).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/index_platform.hpp"
#include "landmark/mapper.hpp"

namespace lmk {

/// One typed index scheme living on an IndexPlatform.
template <MetricSpace S>
class LandmarkIndex {
 public:
  using Point = typename S::Point;
  /// Resolve an object id to its point (the querier's object access for
  /// refinement; in a deployment this is the application's blob store).
  using ObjectFn = std::function<const Point&(std::uint64_t)>;

  /// Registers a scheme named `name` on `platform`; `rotate` enables the
  /// static space-mapping rotation.
  LandmarkIndex(IndexPlatform& platform, const S& space,
                LandmarkMapper<S> mapper, const std::string& name,
                bool rotate = false)
      : platform_(&platform), space_(&space), mapper_(std::move(mapper)) {
    scheme_ = platform_->register_scheme(name, mapper_.boundary(), rotate);
  }

  [[nodiscard]] std::uint32_t scheme_id() const { return scheme_; }
  [[nodiscard]] const LandmarkMapper<S>& mapper() const { return mapper_; }
  [[nodiscard]] IndexPlatform& platform() { return *platform_; }

  /// Bind an object store accessor. When bound, range queries hand index
  /// nodes a true-distance ranking function (distributed refinement, the
  /// paper's recall protocol); when unbound, nodes rank by the
  /// index-space lower bound only.
  void bind_objects(ObjectFn objects) { objects_ = std::move(objects); }

  /// Index one object (bulk load, oracle placement).
  void insert(std::uint64_t object, const Point& p) {
    platform_->insert(scheme_, object, mapper_.map(p));
  }

  /// Bulk-load a whole dataset: objects[i] becomes object id
  /// first_object + i. Landmark mapping and LPH hashing fan out over
  /// the deterministic thread pool; the store placement is identical to
  /// an insert() loop for any thread count.
  void bulk_load(std::span<const Point> objects,
                 std::uint64_t first_object = 0) {
    std::vector<double> rows;
    load_batch(
        objects.size(),
        [&](std::size_t i) -> const Point& { return objects[i]; },
        first_object, rows);
  }

  /// Stream-load a corpus that is a *function* rather than a container:
  /// `make_point(i, out)` writes object i (ids first_object + i) into
  /// caller storage. The corpus is consumed in batches of `batch`
  /// objects, staged in one reused point vector and mapped in parallel
  /// into one reused row buffer: resident scratch is one batch
  /// regardless of corpus size, allocated by the first batch only.
  /// Placement is identical to insert() in a loop, for any thread count
  /// and any batch size.
  template <typename MakePoint>
  void stream_load(std::uint64_t count, MakePoint&& make_point,
                   std::size_t batch = 8192, std::uint64_t first_object = 0) {
    LMK_CHECK(batch > 0);
    std::vector<Point> staged(std::min<std::uint64_t>(batch, count));
    std::vector<double> rows;
    for (std::uint64_t at = 0; at < count; at += batch) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(batch, count - at));
      // Object regeneration may be stateful per point but is
      // index-addressed, so producing the batch in parallel is
      // deterministic.
      load_batch(
          n,
          [&](std::size_t i) -> const Point& {
            make_point(at + i, staged[i]);
            return staged[i];
          },
          first_object + at, rows);
    }
  }

  /// Index one object through the network from `origin` (costed).
  void insert_via_network(ChordNode& origin, std::uint64_t object,
                          const Point& p,
                          std::function<void(int hops)> done = {}) {
    platform_->insert_via_network(origin, scheme_, object, mapper_.map(p),
                                  std::move(done));
  }

  /// Near-neighbour query: all objects within range r of q (superset
  /// retrieval; run `refine_range` on the outcome for the exact answer).
  void range_query(ChordNode& origin, const Point& q, double r,
                   ReplyMode mode, IndexPlatform::QueryCallback done) {
    IndexPlatform::DistanceFn rank;
    if (objects_) {
      // No memo: a node ranks each hit once, before any sort. An entry
      // lying exactly on a split plane is ranked once per routing
      // episode, so twice only when the pieces on both sides reach the
      // node in different episodes; a memo recorded no repeat calls on
      // fig2, fig5 or the flagship.
      rank = [this, q](std::uint64_t id) {
        return space_->distance(q, objects_(id));
      };
    }
    platform_->range_query(origin, scheme_, mapper_.map_unclamped(q), r,
                           mode, std::move(done), std::move(rank));
  }

  /// Remove an object (oracle path; the point determines its key).
  bool remove(std::uint64_t object, const Point& p) {
    return platform_->remove(scheme_, object, mapper_.map(p));
  }

  /// Everything a finished k-NN search reports: the exact k nearest ids
  /// plus the aggregated cost over all expansion rounds.
  struct KnnOutcome {
    std::vector<std::uint64_t> neighbors;
    int rounds = 0;
    bool exact = false;  ///< false if r_max was hit before k were proven
    IndexPlatform::QueryOutcome totals;  ///< summed over rounds
  };
  using KnnCallback = std::function<void(const KnnOutcome&)>;

  /// k-nearest-neighbour search by radius expansion: issue range
  /// queries of growing radius until at least k candidates lie within
  /// the current radius by *true* distance — at that point the metric
  /// ball of radius r is fully inside the searched cube, so the k
  /// nearest are provably among the candidates. Requires a bound object
  /// store. `r0` seeds the radius; each round multiplies it by
  /// `growth`; `r_max` caps the search (result flagged inexact if hit).
  void knn_query(ChordNode& origin, const Point& q, std::size_t k,
                 double r0, double growth, double r_max, KnnCallback done) {
    LMK_CHECK(objects_ != nullptr);
    LMK_CHECK(r0 > 0 && growth > 1.0 && r_max >= r0);
    LMK_CHECK(done != nullptr);
    auto state = std::make_shared<KnnOutcome>();
    knn_round(origin, q, k, r0, growth, r_max, std::move(done), state);
  }

  /// Re-index against a new landmark set (the paper's dynamic-dataset
  /// future work: "new landmark sets can be periodically generated ...
  /// indices will be recalculated and migrated"). Drops every entry of
  /// this scheme, installs the new mapper, and re-inserts `objects`
  /// (id i = objects[i]). Returns the number of entries rebuilt.
  std::size_t rebuild(LandmarkMapper<S> new_mapper,
                      const std::vector<Point>& objects) {
    LMK_CHECK(new_mapper.dims() == mapper_.dims());
    platform_->clear_scheme(scheme_);
    platform_->update_scheme_boundary(scheme_, new_mapper.boundary());
    mapper_ = std::move(new_mapper);
    bulk_load(objects);
    return objects.size();
  }

  /// Exact refinement of a candidate set for a range query (q, r).
  [[nodiscard]] std::vector<std::uint64_t> refine_range(
      const Point& q, double r, std::span<const std::uint64_t> candidates,
      const ObjectFn& object) const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t id : candidates) {
      if (space_->distance(q, object(id)) <= r) out.push_back(id);
    }
    return out;
  }

  /// Merge-and-refine for top-k retrieval: true metric distances over
  /// the candidate union, keep the k nearest (ties by id for
  /// determinism).
  [[nodiscard]] std::vector<std::uint64_t> refine_knn(
      const Point& q, std::span<const std::uint64_t> candidates,
      const ObjectFn& object, std::size_t k) const {
    std::vector<std::pair<double, std::uint64_t>> scored;
    scored.reserve(candidates.size());
    for (std::uint64_t id : candidates) {
      scored.emplace_back(space_->distance(q, object(id)), id);
    }
    std::sort(scored.begin(), scored.end());
    // Candidate lists merged from several retrieval rounds may repeat
    // ids; duplicates must not occupy top-k slots.
    scored.erase(std::unique(scored.begin(), scored.end(),
                             [](const auto& a, const auto& b) {
                               return a.second == b.second;
                             }),
                 scored.end());
    if (scored.size() > k) scored.resize(k);
    std::vector<std::uint64_t> out;
    out.reserve(scored.size());
    for (const auto& [d, id] : scored) out.push_back(id);
    return out;
  }

 private:
  void knn_round(ChordNode& origin, Point q, std::size_t k, double r,
                 double growth, double r_max, KnnCallback done,
                 std::shared_ptr<KnnOutcome> state) {
    range_query(
        origin, q, r, ReplyMode::kTopK,
        [this, &origin, q, k, r, growth, r_max, done = std::move(done),
         state](const IndexPlatform::QueryOutcome& outcome) mutable {
          state->rounds += 1;
          accumulate(state->totals, outcome);
          // Candidates provably complete when >= k lie within r by true
          // distance (the r-ball is inside the searched cube).
          std::vector<std::pair<double, std::uint64_t>> scored;
          for (std::uint64_t id : outcome.results) {
            scored.emplace_back(space_->distance(q, objects_(id)), id);
          }
          std::sort(scored.begin(), scored.end());
          std::size_t within = 0;
          while (within < scored.size() && scored[within].first <= r) {
            ++within;
          }
          if (within >= k || r >= r_max) {
            state->exact = within >= k;
            std::size_t keep = std::min(k, scored.size());
            for (std::size_t i = 0; i < keep; ++i) {
              state->neighbors.push_back(scored[i].second);
            }
            done(*state);
            return;
          }
          knn_round(origin, std::move(q), k,
                    std::min(r * growth, r_max), growth, r_max,
                    std::move(done), state);
        });
  }

  static void accumulate(IndexPlatform::QueryOutcome& total,
                         const IndexPlatform::QueryOutcome& round) {
    total.hops = std::max(total.hops, round.hops);
    total.response_time = total.response_time == 0
                              ? round.response_time
                              : std::min(total.response_time,
                                         round.response_time);
    total.max_latency += round.max_latency;  // rounds run sequentially
    total.query_messages += round.query_messages;
    total.query_bytes += round.query_bytes;
    total.result_messages += round.result_messages;
    total.result_bytes += round.result_bytes;
    total.index_nodes = std::max(total.index_nodes, round.index_nodes);
    total.subqueries += round.subqueries;
    total.lost_subqueries += round.lost_subqueries;
    total.candidates += round.candidates;
    total.scanned += round.scanned;
    total.max_node_candidates =
        std::max(total.max_node_candidates, round.max_node_candidates);
    total.complete = round.complete;
  }

  /// The one load path: map point_at(i) for every i < n into `rows` on
  /// the thread pool (point_at may touch only slot i's state), then
  /// place row i as object first_object + i. `rows` is resized; its
  /// capacity carries over to the next batch.
  template <typename PointAt>
  void load_batch(std::size_t n, PointAt&& point_at,
                  std::uint64_t first_object, std::vector<double>& rows) {
    const std::size_t dims = mapper_.dims();
    rows.resize(n * dims);
    parallel_for(n, [&](std::size_t i) {
      mapper_.map_into(point_at(i),
                       std::span<double>(rows).subspan(i * dims, dims));
    });
    platform_->bulk_insert_flat(scheme_, rows, dims, first_object);
  }

  IndexPlatform* platform_;
  const S* space_;
  LandmarkMapper<S> mapper_;
  ObjectFn objects_;
  std::uint32_t scheme_ = 0;
};

}  // namespace lmk
