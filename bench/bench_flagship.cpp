// Flagship open-loop scenario: the memory-architecture stress test.
//
// Where the figure benches replay the paper's closed query batches at
// paper scale, this bench drives the index like a deployment: a 10k-node
// Chord overlay indexing a 1M-object synthetic corpus that is *streamed*
// into the index (the corpus is a seeded function, never materialized),
// then an open-loop Poisson arrival stream with Zipf-skewed topic
// popularity fires range queries on its own clock — arrivals do not wait
// for completions, so concurrent queries and tail latency are
// observable instead of being hidden by back-pressure.
//
// Reported, split into two JSON sections:
//   - "deterministic": everything derived from virtual time and the
//     seeds — exact latency percentiles (p50/p99/p999), the in-flight
//     query high-water mark, bytes on the wire, sampled recall, store
//     memory. Byte-identical for any LMK_THREADS; CI compares this
//     section across thread counts (LMK_FLAGSHIP_DET_OUT writes it to
//     its own file).
//   - "wallclock": build/oracle/drain wall times and rates for this
//     machine (informational; scripts/bench_diff.py gates only the
//     deterministic section).
//
// Scale: the default is a smoke configuration that finishes in seconds;
// LMK_FULL=1 selects the flagship 10000-node / 1,000,000-object run.
// LMK_SAMPLE and LMK_SEED override the landmark sample and the seed.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "common/alloc_guard.hpp"
#include "common/stats.hpp"
#include "workload/open_loop.hpp"

namespace lmk::bench {
namespace {

template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct FlagshipScale {
  std::size_t nodes;
  std::uint64_t objects;
  std::size_t dims;
  std::size_t landmarks;
  std::uint64_t arrivals;
  double rate;           ///< open-loop Poisson arrivals per second
  double zipf_s;         ///< topic popularity exponent
  double range_factor;   ///< query radius / max theoretical distance
  std::size_t sample;    ///< landmark-selection sample
  std::size_t recall_sample;  ///< arrivals scored against the oracle
  std::uint64_t seed;

  static FlagshipScale resolve() {
    bool full = full_scale();
    FlagshipScale s;
    s.nodes = full ? 10000 : 256;
    s.objects = full ? 1000000 : 20000;
    s.dims = full ? 100 : 16;
    s.landmarks = 10;
    s.arrivals = full ? 2000 : 200;
    s.rate = full ? 50.0 : 20.0;
    s.zipf_s = 0.9;
    // 100-dim full geometry concentrates distances, so the paper's
    // 0.05 factor retrieves well; the 16-dim smoke geometry needs a
    // wider cube for comparable recall.
    s.range_factor = full ? 0.05 : 0.10;
    s.sample = env_size("LMK_SAMPLE", full ? 2000 : 400);
    s.recall_sample = full ? 50 : 25;
    s.seed = env_size("LMK_SEED", 42);
    return s;
  }
};

int run() {
  FlagshipScale s = FlagshipScale::resolve();
  std::printf("# bench_flagship  (nodes=%zu objects=%llu dims=%zu "
              "landmarks=%zu arrivals=%llu rate=%.1f/s range=%.3f "
              "seed=%llu%s)\n",
              s.nodes, static_cast<unsigned long long>(s.objects), s.dims,
              s.landmarks, static_cast<unsigned long long>(s.arrivals),
              s.rate, s.range_factor,
              static_cast<unsigned long long>(s.seed),
              full_scale() ? ", FULL FLAGSHIP SCALE" : "");
  std::printf("pool threads: %zu\n", thread_count());

  // The corpus is a function of (config, seed): streamed into the index
  // in batches and re-walked independently by the sampled oracle.
  SyntheticConfig cfg;
  cfg.objects = s.objects;
  cfg.dims = s.dims;
  cfg.range_lo = 0;
  cfg.range_hi = 100;
  cfg.clusters = 10;
  cfg.deviation = 20;
  SyntheticStream stream(cfg, s.seed);
  double max_dist = max_theoretical_distance(cfg);
  L2Space space;

  // Landmarks from a seeded sample of the stream (k-means, the paper's
  // recommended scheme).
  std::vector<DenseVector> sample_pts;
  double t_select = time_s([&] {
    Rng sel(s.seed + 7);
    auto idx = sel.sample_indices(
        static_cast<std::size_t>(s.objects),
        std::min<std::size_t>(s.sample,
                              static_cast<std::size_t>(s.objects)));
    sample_pts.reserve(idx.size());
    for (auto i : idx) sample_pts.push_back(stream.point(i));
  });
  std::vector<DenseVector> landmarks;
  t_select += time_s([&] {
    Rng rng(s.seed + 8);
    landmarks = kmeans_dense(std::span<const DenseVector>(sample_pts),
                             s.landmarks, rng);
  });
  LandmarkMapper<L2Space> mapper(
      space, std::move(landmarks),
      uniform_boundary(s.landmarks, 0, max_dist));

  // Full stack, same seed-derivation order as SimilarityExperiment.
  Simulator sim;
  Rng rng(s.seed);
  DelaySpaceModel::Options topo;
  topo.hosts = s.nodes;
  topo.seed = rng.fork().next();
  double t_topology = 0;
  std::unique_ptr<DelaySpaceModel> model;
  std::unique_ptr<Network> net;
  std::unique_ptr<Ring> ring;
  t_topology = time_s([&] {
    model = std::make_unique<DelaySpaceModel>(topo);
    net = std::make_unique<Network>(sim, *model);
    Ring::Options ropts;
    ropts.seed = rng.fork().next();
    ring = std::make_unique<Ring>(*net, ropts);
    for (std::size_t h = 0; h < s.nodes; ++h) {
      ring->create_node(static_cast<HostId>(h));
    }
    ring->bootstrap();
  });
  IndexPlatform platform(*ring);
  LandmarkIndex<L2Space> index(platform, space, std::move(mapper),
                               "flagship");

  // Streaming build: batches of the seeded corpus are landmark-mapped
  // into one reused row buffer and bulk-inserted; resident memory is one
  // batch plus the (SoA) stores, never the corpus.
  AllocCounters build_alloc;
  double t_build = time_s([&] {
    AllocPhaseScope phase("stream-build");
    index.stream_load(s.objects, [&](std::uint64_t i, DenseVector& out) {
      out.resize(s.dims);
      stream.point_into(i, out);
    });
    build_alloc = phase.delta();
  });
  LMK_CHECK(platform.scheme_entries(index.scheme_id()) == s.objects);

  // Open-loop arrival stream: Poisson clock, Zipf topic per arrival,
  // query point near the topic's cluster centre.
  OpenLoopConfig ocfg;
  ocfg.arrivals_per_sec = s.rate;
  ocfg.topics = cfg.clusters;
  ocfg.zipf_s = s.zipf_s;
  ocfg.count = s.arrivals;
  ocfg.seed = s.seed + 21;
  std::vector<Arrival> schedule = open_loop_schedule(ocfg);
  std::vector<DenseVector> qpts(schedule.size());
  parallel_for(schedule.size(), [&](std::size_t i) {
    qpts[i] = stream.query_near(schedule[i].topic, i);
  });

  // Oracle-scored subset (recall on every arrival would make the oracle
  // O(arrivals · objects); the sample keeps it O(sample · objects)).
  std::vector<std::size_t> sampled = sample_query_indices(
      schedule.size(),
      std::min<std::size_t>(s.recall_sample, schedule.size()), s.seed + 13);
  std::unordered_set<std::size_t> sampled_set(sampled.begin(),
                                              sampled.end());
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> retrieved;

  const double radius = s.range_factor * max_dist;
  std::vector<ChordNode*> alive = ring->alive_nodes();
  Rng origin_rng = rng.fork();

  // Deterministic per-query numbers (virtual-time latencies).
  std::vector<double> lat_ms, resp_ms;
  lat_ms.reserve(schedule.size());
  resp_ms.reserve(schedule.size());
  Accumulator hops, qbytes, rbytes, qmsgs, subqueries, index_nodes;
  Accumulator scanned;
  std::uint64_t incomplete = 0;

  // One scratch row for regenerating candidate objects during ranking
  // and refinement (the sim is single-threaded; rank calls are atomic).
  DenseVector rank_scratch(s.dims);
  auto dist_to = [&](const DenseVector& q, std::uint64_t id) {
    stream.point_into(id, rank_scratch);
    return std::sqrt(l2_squared(q, rank_scratch));
  };

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    auto at = static_cast<SimTime>(schedule[i].at_sec *
                                   static_cast<double>(kSecond));
    ChordNode* origin = alive[origin_rng.below(alive.size())];
    sim.schedule_at(at, [&, i, origin] {
      const DenseVector& q = qpts[i];
      // `i` must ride by value: the closure outlives this scheduled
      // event (it is invoked per subquery while the query is in
      // flight).
      IndexPlatform::DistanceFn rank = [&, i](std::uint64_t id) {
        return dist_to(qpts[i], id);
      };
      platform.range_query(
          *origin, index.scheme_id(), index.mapper().map_unclamped(q),
          radius, ReplyMode::kTopK,
          [&, i](const IndexPlatform::QueryOutcome& o) {
            double ms = static_cast<double>(o.max_latency) /
                        static_cast<double>(kMillisecond);
            lat_ms.push_back(ms);
            resp_ms.push_back(static_cast<double>(o.response_time) /
                              static_cast<double>(kMillisecond));
            hops.add(o.hops);
            qbytes.add(static_cast<double>(o.query_bytes));
            rbytes.add(static_cast<double>(o.result_bytes));
            qmsgs.add(static_cast<double>(o.query_messages));
            subqueries.add(o.subqueries);
            scanned.add(static_cast<double>(o.scanned));
            index_nodes.add(o.index_nodes);
            if (!o.complete) ++incomplete;
            if (sampled_set.count(i) != 0) {
              // Querier-side refinement: true distances, top-10, ties
              // by id — the paper's recall protocol.
              std::vector<std::pair<double, std::uint64_t>> scored;
              scored.reserve(o.results.size());
              for (std::uint64_t id : o.results) {
                scored.emplace_back(dist_to(qpts[i], id), id);
              }
              std::sort(scored.begin(), scored.end());
              scored.erase(std::unique(scored.begin(), scored.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second == b.second;
                                       }),
                           scored.end());
              if (scored.size() > 10) scored.resize(10);
              auto& ids = retrieved[i];
              ids.reserve(scored.size());
              for (const auto& [d, id] : scored) ids.push_back(id);
            }
          },
          std::move(rank));
    });
  }

  // In-flight query sampling on a virtual-time cadence while the
  // open-loop stream runs.
  std::uint64_t samples = 0;
  std::size_t max_active = 0;
  sim.set_audit(kSecond, [&](SimTime) {
    ++samples;
    max_active = std::max(max_active, platform.active_queries());
  });

  std::uint64_t ev0 = sim.events_executed();
  AllocCounters query_alloc;
  double t_query = time_s([&] {
    AllocPhaseScope phase("open-loop-queries");
    sim.run();
    query_alloc = phase.delta();
  });
  std::uint64_t sim_events = sim.events_executed() - ev0;
  sim.set_audit(0, nullptr);
  LMK_CHECK(lat_ms.size() == schedule.size());

  // Sampled oracle: exact truth for the scored arrivals, streamed over
  // the regenerated corpus (O(sample · objects), bounded memory).
  std::vector<DenseVector> sampled_q;
  sampled_q.reserve(sampled.size());
  for (std::size_t si : sampled) sampled_q.push_back(qpts[si]);
  std::vector<std::vector<std::uint64_t>> truth;
  double t_oracle = time_s([&] {
    truth = knn_truth_streamed(
        space, s.objects,
        [&](std::uint64_t first, std::span<DenseVector> out) {
          parallel_for(out.size(), [&](std::size_t j) {
            out[j].resize(s.dims);
            stream.point_into(first + j, out[j]);
          });
        },
        std::span<const DenseVector>(sampled_q), /*k=*/10);
  });
  Accumulator recall_acc;
  for (std::size_t si = 0; si < sampled.size(); ++si) {
    recall_acc.add(recall(truth[si], retrieved[sampled[si]]));
  }

  // Exact percentiles: repeated nth_element on the same sample vector
  // (partial orderings do not affect later calls).
  double p50 = percentile_nth(lat_ms, 50);
  double p90 = percentile_nth(lat_ms, 90);
  double p99 = percentile_nth(lat_ms, 99);
  double p999 = percentile_nth(lat_ms, 99.9);
  double lat_max = *std::max_element(lat_ms.begin(), lat_ms.end());
  double rp50 = percentile_nth(resp_ms, 50);
  double rp99 = percentile_nth(resp_ms, 99);

  std::uint64_t store_bytes = platform.store_bytes();
  double wire_total = qbytes.sum() + rbytes.sum();

  std::printf("build: select %.3fs  topology %.3fs  stream-load %.3fs "
              "(%.0f objects/s, batches of 8192)\n",
              t_select, t_topology, t_build,
              t_build > 0 ? static_cast<double>(s.objects) / t_build : 0.0);
  std::printf("store: %llu bytes\n",
              static_cast<unsigned long long>(store_bytes));
  std::printf("latency ms: p50 %.2f  p90 %.2f  p99 %.2f  p999 %.2f  "
              "max %.2f\n", p50, p90, p99, p999, lat_max);
  std::printf("first-reply ms: p50 %.2f  p99 %.2f\n", rp50, rp99);
  std::printf("queue: max active queries %zu over %llu samples\n",
              max_active, static_cast<unsigned long long>(samples));
  std::printf("wire: %.0f query + %.0f result = %.0f bytes "
              "(%.1f per query); %.1f msgs, %.1f subqueries, "
              "%.1f index nodes per query\n",
              qbytes.sum(), rbytes.sum(), wire_total,
              wire_total / static_cast<double>(schedule.size()),
              qmsgs.mean(), subqueries.mean(), index_nodes.mean());
  std::printf("recall@10 (sampled, %zu queries): %.3f  (oracle %.3fs)\n",
              sampled.size(), recall_acc.mean(), t_oracle);
  std::printf("query phase: %.3fs wall, %llu sim events, %llu incomplete\n",
              t_query, static_cast<unsigned long long>(sim_events),
              static_cast<unsigned long long>(incomplete));

  // The deterministic section is serialized once and embedded in both
  // output files, so the CI thread-count comparison diffs bytes.
  char det[8192];
  std::snprintf(
      det, sizeof det,
      "{\n"
      "    \"latency_ms\": {\"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, "
      "\"p999\": %.6f, \"max\": %.6f},\n"
      "    \"first_reply_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
      "    \"queue\": {\"samples\": %llu, \"max_active_queries\": %zu},\n"
      "    \"wire\": {\"query_bytes\": %.0f, \"result_bytes\": %.0f, "
      "\"total_bytes\": %.0f, \"bytes_per_query\": %.3f, "
      "\"messages_per_query\": %.3f},\n"
      "    \"memory\": {\"store_bytes\": %llu},\n"
      "    \"recall\": {\"sampled\": %zu, \"mean\": %.6f},\n"
      "    \"subqueries_per_query\": %.6f,\n"
      "    \"scanned_per_subquery\": %.6f,\n"
      "    \"incomplete\": %llu,\n"
      "    \"sim_events\": %llu\n"
      "  }",
      p50, p90, p99, p999, lat_max, rp50, rp99,
      static_cast<unsigned long long>(samples), max_active, qbytes.sum(),
      rbytes.sum(), wire_total,
      wire_total / static_cast<double>(schedule.size()), qmsgs.mean(),
      static_cast<unsigned long long>(store_bytes), sampled.size(),
      recall_acc.mean(), subqueries.mean(),
      subqueries.sum() > 0 ? scanned.sum() / subqueries.sum() : 0.0,
      static_cast<unsigned long long>(incomplete),
      static_cast<unsigned long long>(sim_events));

  const char* out_path = std::getenv("LMK_FLAGSHIP_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_flagship.json";
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"scale\": {\"nodes\": %zu, \"objects\": %llu, \"dims\": %zu, "
      "\"landmarks\": %zu, \"arrivals\": %llu, \"rate\": %.3f, "
      "\"zipf_s\": %.3f, \"range_factor\": %.3f, \"sample\": %zu, "
      "\"recall_sample\": %zu, \"seed\": %llu},\n"
      "  \"deterministic\": %s,\n"
      // Allocation counters depend on the allocator and guard build, so
      // they live outside the deterministic section (which must stay
      // byte-identical across LMK_THREADS).
      "  \"alloc\": {\n"
      "    \"guard_enabled\": %s,\n"
      "    \"stream_build\": {\"allocs\": %llu, \"frees\": %llu, "
      "\"alloc_bytes\": %llu, \"free_bytes\": %llu},\n"
      "    \"open_loop_queries\": {\"allocs\": %llu, \"frees\": %llu, "
      "\"alloc_bytes\": %llu, \"free_bytes\": %llu}\n"
      "  },\n"
      "  \"wallclock\": {\n"
      "    \"select_seconds\": %.6f,\n"
      "    \"topology_seconds\": %.6f,\n"
      "    \"build_seconds\": %.6f,\n"
      "    \"objects_per_sec\": %.1f,\n"
      "    \"query_seconds\": %.6f,\n"
      "    \"sim_events_per_sec\": %.1f,\n"
      "    \"oracle_seconds\": %.6f,\n"
      "    \"threads\": %zu\n"
      "  }\n"
      "}\n",
      s.nodes, static_cast<unsigned long long>(s.objects), s.dims,
      s.landmarks, static_cast<unsigned long long>(s.arrivals), s.rate,
      s.zipf_s, s.range_factor, s.sample,
      std::min<std::size_t>(s.recall_sample, schedule.size()),
      static_cast<unsigned long long>(s.seed), det,
      alloc_guard_enabled() ? "true" : "false",
      static_cast<unsigned long long>(build_alloc.allocs),
      static_cast<unsigned long long>(build_alloc.frees),
      static_cast<unsigned long long>(build_alloc.alloc_bytes),
      static_cast<unsigned long long>(build_alloc.free_bytes),
      static_cast<unsigned long long>(query_alloc.allocs),
      static_cast<unsigned long long>(query_alloc.frees),
      static_cast<unsigned long long>(query_alloc.alloc_bytes),
      static_cast<unsigned long long>(query_alloc.free_bytes),
      t_select, t_topology,
      t_build, t_build > 0 ? static_cast<double>(s.objects) / t_build : 0.0,
      t_query,
      t_query > 0 ? static_cast<double>(sim_events) / t_query : 0.0,
      t_oracle, thread_count());
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  const char* det_path = std::getenv("LMK_FLAGSHIP_DET_OUT");
  if (det_path != nullptr && *det_path != '\0') {
    std::FILE* df = std::fopen(det_path, "w");
    if (df == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", det_path);
      return 1;
    }
    std::fprintf(df, "%s\n", det);
    std::fclose(df);
    std::printf("wrote %s\n", det_path);
  }
  return 0;
}

}  // namespace
}  // namespace lmk::bench

int main() { return lmk::bench::run(); }
