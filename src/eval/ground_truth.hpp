// Exact brute-force answers used to score the distributed index
// (paper §4.1: "the k-nearest data objects obtained by searching the
// whole dataset ... are considered as the theoretical results").
//
// The oracle is the single most expensive offline phase of a bench run
// (queries × objects true-distance evaluations), so the hot path is a
// templated kernel (no per-point std::function indirection) and the
// batch driver fans queries out over the deterministic thread pool —
// each query's truth vector is computed independently and written to
// its own slot, so results are bit-identical for any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "metric/dense.hpp"

namespace lmk {

/// The k nearest object ids among {0..n-1} by the given distance
/// callable, ascending distance, ties broken by id (deterministic).
/// The callable is invoked exactly once per object, in index order, so
/// monotone surrogates (e.g. squared L2) yield identical rankings.
template <typename DistanceFn>
[[nodiscard]] std::vector<std::uint64_t> knn_bruteforce_with(
    std::size_t n, DistanceFn&& distance_to, std::size_t k) {
  // Sized construction + direct stores: push_back's per-element size
  // bookkeeping measurably slows the scan loop (~2x at bench scale).
  std::vector<std::pair<double, std::uint64_t>> scored(n);
  for (std::size_t i = 0; i < n; ++i) {
    scored[i] = {distance_to(i), static_cast<std::uint64_t>(i)};
  }
  std::size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end());
  std::vector<std::uint64_t> out;
  out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) out.push_back(scored[i].second);
  return out;
}

/// Brute-force k-NN truth for a whole query batch over one dataset,
/// parallelized per query over the deterministic pool. `space` must be a
/// MetricSpace over `Point` (read-only; distance calls must be pure).
template <typename S, typename Point = typename S::Point>
[[nodiscard]] std::vector<std::vector<std::uint64_t>> knn_bruteforce_batch(
    const S& space, const std::vector<Point>& dataset,
    const std::vector<Point>& queries, std::size_t k) {
  std::vector<std::vector<std::uint64_t>> out(queries.size());
  parallel_for(
      queries.size(),
      [&](std::size_t qi) {
        const Point& q = queries[qi];
        out[qi] = knn_bruteforce_with(
            dataset.size(),
            [&](std::size_t j) { return space.distance(q, dataset[j]); },
            k);
      },
      /*grain=*/1);
  return out;
}

/// Dense-L2 specialization of the batch oracle: copies both sides into
/// contiguous row-major DenseMatrix storage once and ranks by squared
/// distance (sqrt is monotone, so the ids are identical to the generic
/// path — with neither the per-point pointer chase nor the sqrt).
[[nodiscard]] inline std::vector<std::vector<std::uint64_t>>
knn_bruteforce_batch(const L2Space&, const std::vector<DenseVector>& dataset,
                     const std::vector<DenseVector>& queries, std::size_t k) {
  DenseMatrix data = DenseMatrix::from_rows(dataset);
  DenseMatrix qm = DenseMatrix::from_rows(queries);
  std::vector<std::vector<std::uint64_t>> out(queries.size());
  parallel_for(
      queries.size(),
      [&](std::size_t qi) {
        std::span<const double> q = qm.row(qi);
        out[qi] = knn_bruteforce_with(
            data.rows(),
            [&](std::size_t j) { return l2_squared(q, data.row(j)); }, k);
      },
      /*grain=*/1);
  return out;
}

/// Seeded selection of a query sample: `sample` distinct indices from
/// [0, n_queries), ascending. The flagship bench scores recall on this
/// sample only, so oracle cost is O(sample · n) instead of O(n²).
[[nodiscard]] std::vector<std::size_t> sample_query_indices(
    std::size_t n_queries, std::size_t sample, std::uint64_t seed);

/// Exact k-NN truth for a set of (already sampled) query points over a
/// *streamed* corpus: `fill(first, out)` regenerates objects
/// first … first+out.size()-1 into caller storage, and the corpus is
/// consumed once in batches — resident memory is one batch plus one
/// k-slot heap per query, never the whole dataset.
///
/// Each query keeps the k smallest (distance, id) pairs in a bounded
/// max-heap; that set is unique under the lexicographic total order,
/// so the result is exact and independent of batch size and thread
/// count — identical to knn_bruteforce_batch over the materialized
/// corpus.
template <typename S, typename FillBatch, typename Point = typename S::Point>
[[nodiscard]] std::vector<std::vector<std::uint64_t>> knn_truth_streamed(
    const S& space, std::uint64_t n_objects, FillBatch&& fill,
    std::span<const Point> queries, std::size_t k,
    std::size_t batch = 8192) {
  LMK_CHECK(batch > 0);
  using Scored = std::pair<double, std::uint64_t>;
  std::vector<std::vector<Scored>> heaps(queries.size());
  for (auto& h : heaps) h.reserve(k + 1);
  std::vector<Point> staged(
      static_cast<std::size_t>(std::min<std::uint64_t>(batch, n_objects)));
  for (std::uint64_t at = 0; at < n_objects; at += batch) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(batch, n_objects - at));
    fill(at, std::span<Point>(staged.data(), n));
    // One task per query (grain 1): each owns its heap outright.
    parallel_for(
        queries.size(),
        [&](std::size_t qi) {
          auto& heap = heaps[qi];
          for (std::size_t j = 0; j < n; ++j) {
            Scored cand{space.distance(queries[qi], staged[j]), at + j};
            if (heap.size() < k) {
              heap.push_back(cand);
              std::push_heap(heap.begin(), heap.end());
            } else if (k > 0 && cand < heap.front()) {
              std::pop_heap(heap.begin(), heap.end());
              heap.back() = cand;
              std::push_heap(heap.begin(), heap.end());
            }
          }
        },
        /*grain=*/1);
  }
  std::vector<std::vector<std::uint64_t>> out(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    std::sort(heaps[qi].begin(), heaps[qi].end());
    out[qi].reserve(heaps[qi].size());
    for (const auto& [d, id] : heaps[qi]) out[qi].push_back(id);
  }
  return out;
}

/// All object ids within `radius` (inclusive) of the query.
[[nodiscard]] std::vector<std::uint64_t> range_bruteforce(
    std::size_t n, const std::function<double(std::size_t)>& distance_to,
    double radius);

/// Recall = |truth ∩ retrieved| / |truth| (paper §4.1). 1.0 when the
/// truth set is empty (nothing to find).
[[nodiscard]] double recall(std::span<const std::uint64_t> truth,
                            std::span<const std::uint64_t> retrieved);

}  // namespace lmk
