// Ablation: automatic query expansion (paper §6, future work #2) —
// pseudo-relevance feedback on the TREC-like corpus. Round one
// retrieves candidates for the raw ~3.5-term query; Rocchio expansion
// folds the strongest terms of the top documents into the query, which
// is re-issued. Measured: recall@10 before/after and the second round's
// extra cost. Both modes intentionally share one index stack (sim time
// accumulates across them), so the bench is a single sweep cell.
#include <optional>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "ir/expansion.hpp"

int main() {
  using namespace lmk;
  using namespace lmk::bench;
  Scale scale = Scale::resolve();
  scale.print("Ablation: Rocchio query expansion on the TREC-like corpus");
  CorpusWorkload w(scale);
  const auto& docs = w.corpus->documents();

  TablePrinter table({"mode", "recall@10", "avg_total_B", "avg_maxlat_ms"});
  SweepDriver sweep;
  sweep.add_cell([&w, &scale, &docs]() {
    Simulator sim;
    DelaySpaceModel::Options topo_opts;
    topo_opts.hosts = scale.nodes;
    topo_opts.seed = scale.seed;
    DelaySpaceModel topo(topo_opts);
    Network net(sim, topo);
    Ring::Options ropts;
    ropts.seed = scale.seed;
    Ring ring(net, ropts);
    for (HostId h = 0; h < scale.nodes; ++h) ring.create_node(h);
    ring.bootstrap();
    IndexPlatform platform(ring);
    std::size_t sample =
        full_scale() ? 3000 : std::min<std::size_t>(1000, scale.docs / 4);
    LandmarkIndex<AngularSpace> index(
        platform, w.space,
        w.make_mapper(Selection::kKMeans, 10, sample, scale.seed + 7),
        "expansion");
    index.bind_objects([&docs](std::uint64_t id) -> const SparseVector& {
      return docs[id];
    });
    for (std::size_t i = 0; i < docs.size(); ++i) index.insert(i, docs[i]);

    // Small enough that the raw ~3.5-term query misses part of its true
    // neighbourhood — the regime expansion exists for.
    const double radius = 0.12 * 3.14159 / 2;
    std::size_t probe_count = std::min<std::size_t>(40, w.queries.size());
    auto object = [&docs](std::uint64_t id) -> const SparseVector& {
      return docs[id];
    };

    CellOutput out;
    for (bool expand : {false, true}) {
      double recall_sum = 0, bytes = 0, lat = 0;
      auto nodes = ring.alive_nodes();
      Rng rng(scale.seed + 31);
      for (std::size_t qi = 0; qi < probe_count; ++qi) {
        const SparseVector& q = w.queries[qi];
        auto truth = knn_bruteforce_with(
            docs.size(),
            [&](std::size_t j) { return w.space.distance(q, docs[j]); }, 10);
        ChordNode* origin = nodes[rng.below(nodes.size())];
        std::optional<IndexPlatform::QueryOutcome> round1;
        index.range_query(*origin, q, radius, ReplyMode::kTopK,
                          [&](const auto& o) { round1 = o; });
        sim.run();
        bytes += static_cast<double>(round1->query_bytes +
                                     round1->result_bytes);
        lat += static_cast<double>(round1->max_latency) / kMillisecond;
        auto top1 = index.refine_knn(q, round1->results, object, 10);
        if (!expand) {
          recall_sum += recall(truth, top1);
          continue;
        }
        // Feedback: the best documents of round one (by true distance).
        std::vector<SparseVector> feedback;
        for (std::uint64_t id : top1) {
          if (feedback.size() >= 5) break;
          feedback.push_back(docs[id]);
        }
        RocchioOptions rocchio;
        rocchio.beta = 1.5;         // strong feedback: the raw query is tiny
        rocchio.expansion_terms = 25;
        SparseVector expanded = rocchio_expand(
            q, std::span<const SparseVector>(feedback), rocchio);
        std::optional<IndexPlatform::QueryOutcome> round2;
        index.range_query(*origin, expanded, radius, ReplyMode::kTopK,
                          [&](const auto& o) { round2 = o; });
        sim.run();
        bytes += static_cast<double>(round2->query_bytes +
                                     round2->result_bytes);
        lat += static_cast<double>(round2->max_latency) / kMillisecond;
        // Merge both rounds' candidates; final ranking by distance to the
        // ORIGINAL query (recall is judged against the user's question).
        std::vector<std::uint64_t> merged = round1->results;
        merged.insert(merged.end(), round2->results.begin(),
                      round2->results.end());
        auto top = index.refine_knn(q, merged, object, 10);
        recall_sum += recall(truth, top);
      }
      auto n = static_cast<double>(probe_count);
      out.rows.push_back({expand ? "expanded (2 rounds)" : "raw query",
                          fmt(recall_sum / n, 3), fmt(bytes / n, 0),
                          fmt(lat / n, 0)});
    }
    return out;
  });
  sweep.run_into(table);
  table.print();
  std::printf(
      "\nexpected: expansion recovers documents the sparse raw query "
      "misses, at roughly double the per-query cost.\n");
  return 0;
}
