// Performance baseline: times the offline phases every figure/table
// bench pays for — brute-force k-NN oracle, landmark selection, index
// build (mapping + bulk insert) — plus the *online* hot path (event
// dispatch through the simulator, end-to-end query throughput, and
// per-subquery candidate-scan counters), and writes BENCH_perf.json.
//
// The three offline phases run twice, with 1 thread and with the
// configured pool width (LMK_THREADS, default = hardware concurrency),
// so the JSON records the parallel speedup on this machine. The online
// phase is the discrete-event simulator: single-threaded by contract,
// timed once:
//   - engine_events_per_sec: a pure dispatch storm (self-rescheduling
//     chains, LMK_ONLINE_EVENTS events) isolating the event queue;
//   - sim_events_per_sec / queries_per_sec: the simulated query batch;
//   - candidates/scanned per subquery: per-node local-solve cost.
// A fourth phase times the parallel sweep engine (src/eval/sweep.hpp):
// identical experiment cells over shared immutable inputs, run strictly
// serial and at the pool width, reporting cells/sec and the speedup
// (results are checked bit-identical between the two runs).
// When LMK_PERF_BASELINE names an earlier BENCH_perf.json (the
// committed bench/BENCH_perf.baseline.json), its "online" section is
// embedded verbatim as "online_baseline" so one file carries both
// sides of the regression check (scripts/bench_diff.py).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "common/alloc_guard.hpp"
#include "common/parallel.hpp"
#include "core/typed_index.hpp"
#include "eval/experiment.hpp"

namespace lmk::bench {
namespace {

template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct PhaseTimes {
  double oracle = 0;
  double kmeans = 0;
  double greedy = 0;
  double build = 0;
};

struct OnlineNumbers {
  std::uint64_t engine_events = 0;
  double engine_s = 0;          ///< dispatch-storm wall time
  std::uint64_t sim_events = 0; ///< events fired by the query batch
  double query_s = 0;           ///< query-batch wall time
  std::uint64_t queries = 0;
  double subqueries = 0;        ///< local solves across the batch
  double candidates = 0;        ///< region-matching entries, total
  double scanned = 0;           ///< entries examined, total

  [[nodiscard]] double engine_eps() const {
    return engine_s > 0 ? static_cast<double>(engine_events) / engine_s : 0;
  }
  [[nodiscard]] double sim_eps() const {
    return query_s > 0 ? static_cast<double>(sim_events) / query_s : 0;
  }
  [[nodiscard]] double qps() const {
    return query_s > 0 ? static_cast<double>(queries) / query_s : 0;
  }
  [[nodiscard]] double cand_per_subquery() const {
    return subqueries > 0 ? candidates / subqueries : 0;
  }
  [[nodiscard]] double scan_per_subquery() const {
    return subqueries > 0 ? scanned / subqueries : 0;
  }
};

struct SweepNumbers {
  std::size_t cells = 0;
  double t1 = 0;                ///< wall time, strictly serial (1 thread)
  double tN = 0;                ///< wall time at the pool width
  std::size_t peak_resident = 0;
  std::size_t resident_cap = 0;

  [[nodiscard]] double cps1() const {
    return t1 > 0 ? static_cast<double>(cells) / t1 : 0;
  }
  [[nodiscard]] double cpsN() const {
    return tN > 0 ? static_cast<double>(cells) / tN : 0;
  }
  [[nodiscard]] double speedup() const { return tN > 0 ? t1 / tN : 0; }
};

/// Pure event-engine throughput: `chains` self-rescheduling events
/// hammer push/pop/dispatch with small (SBO-sized) closures, mixed
/// delays (heavy same-timestamp ties included) and actor tags, until
/// `budget` events have fired. No protocol work — this isolates the
/// queue + closure machinery the simulator core pays for per event.
struct DispatchStorm {
  Simulator sim;
  std::uint64_t remaining;

  void arm(SimTime delay, std::uint64_t salt) {
    // The capture is sized like the tree router's batched delivery
    // closure (~56 bytes: this, qid/incarnation words, hop bookkeeping)
    // so the storm exercises the same callable-storage path the real
    // simulation does. The payload feeds back into the delay stream so
    // the optimizer cannot shed it.
    std::uint64_t payload[5] = {salt ^ 0xa076'1d64'78bd'642full,
                                salt * 0xe703'7ed1'a0b4'28dbull,
                                salt + 0x8ebc'6af0'9c88'c6e3ull,
                                salt ^ (salt >> 33),
                                ~salt};
    sim.schedule_after(delay,
                       [this, salt, payload] {
                         fire(salt ^ payload[salt & 3]);
                       },
                       /*actor=*/salt & 1023);
  }

  void fire(std::uint64_t salt) {
    if (remaining == 0) return;
    --remaining;
    // xorshift keeps the delay pattern (and heap shape) churning.
    salt ^= salt << 13;
    salt ^= salt >> 7;
    salt ^= salt << 17;
    arm(static_cast<SimTime>(salt % 5), salt);
  }

  explicit DispatchStorm(std::uint64_t budget, std::size_t chains)
      : remaining(budget) {
    for (std::size_t c = 0; c < chains; ++c) {
      arm(static_cast<SimTime>(c % 7), 0x9e3779b97f4a7c15ull + c);
    }
  }
};

/// Extract the balanced-brace object following `"key":` in `json`.
/// Empty when absent — the baseline file is optional.
std::string extract_object(const std::string& json, const std::string& key) {
  std::size_t k = json.find("\"" + key + "\"");
  if (k == std::string::npos) return {};
  std::size_t open = json.find('{', k);
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return {};
}

/// Pull `"field": <number>` out of a JSON object snippet (0 if absent).
double extract_number(const std::string& obj, const std::string& field) {
  std::size_t k = obj.find("\"" + field + "\"");
  if (k == std::string::npos) return 0;
  std::size_t colon = obj.find(':', k);
  if (colon == std::string::npos) return 0;
  return std::strtod(obj.c_str() + colon + 1, nullptr);
}

int run() {
  Scale s = Scale::resolve();
  s.print("bench_perf");
  std::size_t pool_threads = thread_count();
  std::printf("pool threads: %zu\n", pool_threads);

  SyntheticWorkload w(s);
  std::size_t k = 10;  // landmarks (paper's synthetic default)
  std::size_t sample_size = std::min(s.sample, w.data.points.size());

  auto measure = [&](std::size_t threads,
                     std::vector<std::vector<std::uint64_t>>* truth_out,
                     std::vector<DenseVector>* kmeans_out) {
    set_threads(threads);
    PhaseTimes t;
    t.oracle = time_s([&] {
      *truth_out = knn_bruteforce_batch(w.space, w.data.points, w.queries,
                                        /*k=*/10);
    });
    Rng sel_rng(s.seed + 7);
    auto idx = sel_rng.sample_indices(w.data.points.size(), sample_size);
    std::vector<DenseVector> sample;
    sample.reserve(idx.size());
    for (auto i : idx) sample.push_back(w.data.points[i]);
    t.kmeans = time_s([&] {
      Rng rng(s.seed + 8);
      *kmeans_out =
          kmeans_dense(std::span<const DenseVector>(sample), k, rng);
    });
    std::vector<DenseVector> greedy_lm;
    t.greedy = time_s([&] {
      Rng rng(s.seed + 9);
      greedy_lm = greedy_selection(
          w.space, std::span<const DenseVector>(sample), k, rng);
    });
    LandmarkMapper<L2Space> mapper(w.space, *kmeans_out,
                                   uniform_boundary(k, 0, w.max_dist));
    t.build = time_s([&] {
      Simulator sim;
      ConstantLatencyModel topo(s.nodes, kMillisecond);
      Network net(sim, topo);
      Ring ring(net, Ring::Options{});
      for (HostId h = 0; h < static_cast<HostId>(s.nodes); ++h) {
        ring.create_node(h);
      }
      ring.bootstrap();
      IndexPlatform platform(ring);
      LandmarkIndex<L2Space> index(platform, w.space, mapper, "perf");
      index.bulk_load(w.data.points);
      LMK_CHECK(platform.scheme_entries(index.scheme_id()) ==
                w.data.points.size());
    });
    return t;
  };

  std::vector<std::vector<std::uint64_t>> truth1, truthN;
  std::vector<DenseVector> kmeans1, kmeansN;
  PhaseTimes t1 = measure(1, &truth1, &kmeans1);
  PhaseTimes tN = measure(pool_threads, &truthN, &kmeansN);
  LMK_CHECK(truth1 == truthN);    // determinism contract, enforced
  LMK_CHECK(kmeans1 == kmeansN);

  // Online phase 1: event-engine dispatch storm (no protocol work).
  // Under LMK_ALLOC_GUARD the storm splits into a warmup quarter (the
  // bucket/heap/closure pools reach their high-water capacity — the
  // allocations here are the expected one-time warmup) and the steady
  // state, whose allocation delta the bench_diff gate requires to be
  // exactly zero.
  OnlineNumbers online;
  online.engine_events =
      env_size("LMK_ONLINE_EVENTS", full_scale() ? 16000000 : 4000000);
  AllocCounters engine_warmup;
  AllocCounters engine_steady;
  {
    DispatchStorm storm(online.engine_events, /*chains=*/4096);
    online.engine_s = time_s([&] {
      {
        AllocPhaseScope phase("engine-warmup");
        storm.sim.run(online.engine_events / 4);
        engine_warmup = phase.delta();
      }
      {
        AllocPhaseScope phase("engine-steady-state");
        storm.sim.run();
        engine_steady = phase.delta();
      }
    });
    LMK_CHECK(storm.remaining == 0);
  }
  if (alloc_guard_enabled()) {
    std::printf("alloc guard: engine warmup %llu allocs / %llu bytes, "
                "steady state %llu allocs / %llu frees\n",
                static_cast<unsigned long long>(engine_warmup.allocs),
                static_cast<unsigned long long>(engine_warmup.alloc_bytes),
                static_cast<unsigned long long>(engine_steady.allocs),
                static_cast<unsigned long long>(engine_steady.frees));
  }

  // Online phase 2: the simulated query batch, single-threaded by
  // contract — end-to-end events/sec and queries/sec through the full
  // stack, plus the per-subquery local-solve scan counters.
  set_threads(pool_threads);
  ExperimentConfig cfg;
  cfg.nodes = s.nodes;
  cfg.seed = s.seed;
  double recall_sum = 0;
  {
    SimilarityExperiment<L2Space> exp(
        cfg, w.space, w.data.points,
        w.make_mapper(Selection::kKMeans, k, s.sample, s.seed + 8),
        "perf-query");
    exp.set_queries(w.queries, truthN);
    std::uint64_t ev0 = exp.sim().events_executed();
    online.query_s = time_s([&] {
      QueryStats stats = exp.run_batch(0.05 * w.max_dist);
      recall_sum = stats.recall.mean();
      online.subqueries = stats.subqueries.sum();
      online.candidates = stats.candidates.sum();
      online.scanned = stats.scanned.sum();
    });
    online.sim_events = exp.sim().events_executed() - ev0;
    online.queries = s.queries;
  }
  set_threads(0);
  double query_s = online.query_s;

  // Sweep phase: the parallel sweep engine (src/eval/sweep.hpp) running
  // the shape every figure bench now has — independent experiment cells
  // over shared immutable inputs — timed strictly serial (1 thread) and
  // at the pool width. The cells share one config, so they also share
  // one topology instance; outputs must match bit-for-bit between the
  // two runs (enforced below).
  SweepNumbers sweep;
  sweep.cells = 8;
  {
    std::size_t cell_nodes = std::max<std::size_t>(32, s.nodes / 4);
    std::size_t cell_objects =
        std::min(w.data.points.size(), std::max<std::size_t>(500,
                                                             s.objects / 4));
    std::size_t cell_queries = std::min<std::size_t>(20, w.queries.size());
    auto cell_dataset = share(std::vector<DenseVector>(
        w.data.points.begin(),
        w.data.points.begin() + static_cast<std::ptrdiff_t>(cell_objects)));
    auto cell_queryset = share(std::vector<DenseVector>(
        w.queries.begin(),
        w.queries.begin() + static_cast<std::ptrdiff_t>(cell_queries)));
    auto cell_truth = share(SimilarityExperiment<L2Space>::compute_truth(
        w.space, *cell_dataset, *cell_queryset, 10));
    ExperimentConfig proto;
    proto.nodes = cell_nodes;
    proto.seed = s.seed;
    auto topology = SimilarityExperiment<L2Space>::make_topology(proto);

    auto run_cells = [&](std::size_t threads, double* wall,
                         std::size_t* peak, std::size_t* cap) {
      set_threads(threads);
      SweepDriver driver;
      for (std::size_t i = 0; i < sweep.cells; ++i) {
        Selection sel = (i % 2 == 0) ? Selection::kGreedy
                                     : Selection::kKMeans;
        driver.add_cell([&, sel, i]() {
          std::string name = std::string(selection_name(sel)) + "-cell" +
                             std::to_string(i);
          SimilarityExperiment<L2Space> exp(
              proto, w.space, cell_dataset,
              w.make_mapper(sel, /*k=*/5, std::min<std::size_t>(200,
                                                                s.sample),
                            s.seed + 11 + i),
              name, topology);
          exp.set_queries(cell_queryset, cell_truth);
          QueryStats stats = exp.run_batch(0.05 * w.max_dist);
          CellOutput out;
          out.rows.push_back({name, fmt(stats.recall.mean(), 3),
                              fmt(stats.hops.mean(), 2),
                              fmt(stats.query_messages.mean(), 1)});
          return out;
        });
      }
      std::vector<CellOutput> outs;
      *wall = time_s([&] { outs = driver.run(); });
      *peak = driver.peak_resident();
      *cap = driver.resident_cap();
      return outs;
    };

    std::size_t peak1 = 0, cap1 = 0;
    double wall1 = 0;
    auto outs1 = run_cells(1, &wall1, &peak1, &cap1);
    auto outsN = run_cells(pool_threads, &sweep.tN, &sweep.peak_resident,
                           &sweep.resident_cap);
    sweep.t1 = wall1;
    set_threads(0);
    LMK_CHECK(outs1.size() == outsN.size());
    for (std::size_t i = 0; i < outs1.size(); ++i) {
      // Determinism contract, enforced: identical cell results at any
      // thread count.
      LMK_CHECK(outs1[i].rows == outsN[i].rows);
      LMK_CHECK(outs1[i].lines == outsN[i].lines);
    }
  }

  // Local-store phase: the LocalStore over one large EntryStore, no
  // network in the loop — isolates the per-node build and probe costs
  // the end-to-end query numbers blend together. Boxes are centred on
  // stored entries; the probes must return exactly the hits of a
  // brute-force scan, in the same ascending order (digest, checked).
  struct StoreNumbers {
    double build_s = 0;
    double range_s = 0;
    std::uint64_t range_scanned = 0;
    std::uint64_t range_hits = 0;
    std::size_t bytes = 0;
  } store_cell;
  const std::size_t store_entries = std::min<std::size_t>(
      w.data.points.size(), full_scale() ? 200000 : 20000);
  const std::size_t store_probes = full_scale() ? 100 : 200;
  {
    LandmarkMapper<L2Space> mapper(w.space, kmeansN,
                                   uniform_boundary(k, 0, w.max_dist));
    EntryStore store;
    for (std::size_t i = 0; i < store_entries; ++i) {
      store.push_back(static_cast<Id>(i), i, mapper.map(w.data.points[i]));
    }
    Rng prng(s.seed + 21);
    std::vector<Region> boxes;
    const double width = 0.02 * w.max_dist;
    for (std::size_t p = 0; p < store_probes; ++p) {
      const std::span<const double> c =
          store.point(prng.below(store.size()));
      Region r;
      for (std::size_t d = 0; d < c.size(); ++d) {
        r.ranges.push_back(Interval{c[d] - width, c[d] + width});
      }
      boxes.push_back(std::move(r));
    }
    const std::uint64_t fnv_basis = 1469598103934665603ULL;
    const std::uint64_t fnv_prime = 1099511628211ULL;
    LocalStore ls;
    store_cell.build_s = time_s([&] { ls.build(store); });
    std::vector<std::uint32_t> out;
    std::uint64_t digest = fnv_basis;
    store_cell.range_s = time_s([&] {
      for (const Region& r : boxes) {
        out.clear();
        store_cell.range_scanned += ls.range(store, r, out);
        store_cell.range_hits += out.size();
        for (std::uint32_t hit : out) digest = (digest ^ hit) * fnv_prime;
      }
    });
    store_cell.bytes = ls.memory_bytes();
    std::uint64_t brute = fnv_basis;
    for (const Region& r : boxes) {
      for (std::size_t i = 0; i < store.size(); ++i) {
        if (linf_box_distance(store.point(i), r) == 0.0) {
          brute = (brute ^ i) * fnv_prime;
        }
      }
    }
    LMK_CHECK(digest == brute);
    std::printf("store sorted build %8.3fs  range %8.3fs "
                "(%7.1f scanned/probe, %llu hits)  %zu B\n",
                store_cell.build_s, store_cell.range_s,
                static_cast<double>(store_cell.range_scanned) /
                    static_cast<double>(store_probes),
                static_cast<unsigned long long>(store_cell.range_hits),
                store_cell.bytes);
  }

  double off1 = t1.oracle + t1.kmeans + t1.greedy + t1.build;
  double offN = tN.oracle + tN.kmeans + tN.greedy + tN.build;
  std::printf("phase           1 thread      %zu threads\n", pool_threads);
  std::printf("oracle      %10.3fs   %10.3fs\n", t1.oracle, tN.oracle);
  std::printf("kmeans      %10.3fs   %10.3fs\n", t1.kmeans, tN.kmeans);
  std::printf("greedy      %10.3fs   %10.3fs\n", t1.greedy, tN.greedy);
  std::printf("build       %10.3fs   %10.3fs\n", t1.build, tN.build);
  std::printf("offline sum %10.3fs   %10.3fs   (speedup %.2fx)\n", off1,
              offN, offN > 0 ? off1 / offN : 0.0);
  std::printf("query       %10.3fs  (simulated, single-threaded; "
              "mean recall %.3f)\n",
              query_s, recall_sum);
  std::printf("online: engine %.0f events/s (%llu events), "
              "batch %.0f events/s, %.1f queries/s\n",
              online.engine_eps(),
              static_cast<unsigned long long>(online.engine_events),
              online.sim_eps(), online.qps());
  std::printf("online: %.1f candidates, %.1f scanned per subquery "
              "(%.0f subqueries)\n",
              online.cand_per_subquery(), online.scan_per_subquery(),
              online.subqueries);
  std::printf("sweep: %zu cells  1 thread %.3fs (%.2f cells/s)  "
              "%zu threads %.3fs (%.2f cells/s)  speedup %.2fx  "
              "peak resident %zu (cap %zu)\n",
              sweep.cells, sweep.t1, sweep.cps1(), pool_threads, sweep.tN,
              sweep.cpsN(), sweep.speedup(), sweep.peak_resident,
              sweep.resident_cap);

  // Pre-PR baseline (committed): embedded into the output JSON so the
  // file carries both sides of the events/sec regression check.
  std::string baseline_online;
  const char* baseline_path = std::getenv("LMK_PERF_BASELINE");
  if (baseline_path != nullptr && *baseline_path != '\0') {
    std::FILE* bf = std::fopen(baseline_path, "r");
    if (bf == nullptr) {
      std::fprintf(stderr, "baseline %s not readable\n", baseline_path);
    } else {
      std::string text;
      char buf[4096];
      std::size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof buf, bf)) > 0) {
        text.append(buf, got);
      }
      std::fclose(bf);
      baseline_online = extract_object(text, "online");
      if (baseline_online.empty()) {
        std::fprintf(stderr, "baseline %s has no \"online\" section\n",
                     baseline_path);
      } else {
        double base_eps = extract_number(baseline_online,
                                         "engine_events_per_sec");
        double base_scan = extract_number(baseline_online,
                                          "scanned_per_subquery");
        if (base_eps > 0) {
          std::printf("online: engine speedup vs baseline: %.2fx\n",
                      online.engine_eps() / base_eps);
        }
        if (base_scan > 0) {
          std::printf("online: scanned/subquery vs baseline: %.1f -> %.1f\n",
                      base_scan, online.scan_per_subquery());
        }
      }
    }
  }

  const char* out_path = std::getenv("LMK_PERF_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_perf.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"threads\": %zu,\n"
               "  \"scale\": {\"nodes\": %zu, \"objects\": %zu, "
               "\"queries\": %zu, \"sample\": %zu, \"seed\": %llu},\n"
               "  \"phases\": {\n"
               "    \"oracle\": {\"t1\": %.6f, \"tN\": %.6f},\n"
               "    \"kmeans\": {\"t1\": %.6f, \"tN\": %.6f},\n"
               "    \"greedy\": {\"t1\": %.6f, \"tN\": %.6f},\n"
               "    \"build\": {\"t1\": %.6f, \"tN\": %.6f},\n"
               "    \"query\": {\"tN\": %.6f}\n"
               "  },\n"
               "  \"offline_seconds_1_thread\": %.6f,\n"
               "  \"offline_seconds_n_threads\": %.6f,\n"
               "  \"offline_speedup\": %.4f,\n"
               "  \"online\": {\n"
               "    \"engine_events\": %llu,\n"
               "    \"engine_seconds\": %.6f,\n"
               "    \"engine_events_per_sec\": %.1f,\n"
               "    \"sim_events\": %llu,\n"
               "    \"query_seconds\": %.6f,\n"
               "    \"sim_events_per_sec\": %.1f,\n"
               "    \"queries\": %llu,\n"
               "    \"queries_per_sec\": %.3f,\n"
               "    \"subqueries\": %.0f,\n"
               "    \"candidates_per_subquery\": %.3f,\n"
               "    \"scanned_per_subquery\": %.3f\n"
               "  },\n"
               "  \"sweep\": {\n"
               "    \"cells\": %zu,\n"
               "    \"t1_seconds\": %.6f,\n"
               "    \"tN_seconds\": %.6f,\n"
               "    \"cells_per_sec_1_thread\": %.4f,\n"
               "    \"cells_per_sec_n_threads\": %.4f,\n"
               "    \"speedup\": %.4f,\n"
               "    \"peak_resident\": %zu,\n"
               "    \"resident_cap\": %zu,\n"
               "    \"hardware_threads\": %u\n"
               "  }",
               pool_threads, s.nodes, s.objects, s.queries, sample_size,
               static_cast<unsigned long long>(s.seed), t1.oracle, tN.oracle,
               t1.kmeans, tN.kmeans, t1.greedy, tN.greedy, t1.build,
               tN.build, query_s, off1, offN,
               offN > 0 ? off1 / offN : 0.0,
               static_cast<unsigned long long>(online.engine_events),
               online.engine_s, online.engine_eps(),
               static_cast<unsigned long long>(online.sim_events),
               online.query_s, online.sim_eps(),
               static_cast<unsigned long long>(online.queries), online.qps(),
               online.subqueries, online.cand_per_subquery(),
               online.scan_per_subquery(), sweep.cells, sweep.t1, sweep.tN,
               sweep.cps1(), sweep.cpsN(), sweep.speedup(),
               sweep.peak_resident, sweep.resident_cap,
               std::thread::hardware_concurrency());
  // Local-store phase: build + probe wall times over the box schedule.
  std::fprintf(f,
               ",\n  \"local_store\": {\n"
               "    \"entries\": %zu,\n"
               "    \"range_probes\": %zu,\n"
               "    \"sorted\": {\"build_seconds\": %.6f, "
               "\"range_seconds\": %.6f, \"scanned_per_range\": %.3f, "
               "\"range_hits\": %llu, \"memory_bytes\": %zu}\n  }",
               store_entries, store_probes, store_cell.build_s,
               store_cell.range_s,
               static_cast<double>(store_cell.range_scanned) /
                   static_cast<double>(store_probes),
               static_cast<unsigned long long>(store_cell.range_hits),
               store_cell.bytes);

  // Per-phase allocation deltas (all-zero unless built with
  // -DLMK_ALLOC_GUARD=ON; "guard_enabled" tells bench_diff.py whether
  // the zero-steady-state-allocation gate is meaningful).
  std::fprintf(f,
               ",\n  \"alloc\": {\n"
               "    \"guard_enabled\": %s,\n"
               "    \"engine_warmup\": {\"allocs\": %llu, \"frees\": %llu, "
               "\"alloc_bytes\": %llu, \"free_bytes\": %llu},\n"
               "    \"engine_steady_state\": {\"allocs\": %llu, "
               "\"frees\": %llu, \"alloc_bytes\": %llu, "
               "\"free_bytes\": %llu}\n"
               "  }",
               alloc_guard_enabled() ? "true" : "false",
               static_cast<unsigned long long>(engine_warmup.allocs),
               static_cast<unsigned long long>(engine_warmup.frees),
               static_cast<unsigned long long>(engine_warmup.alloc_bytes),
               static_cast<unsigned long long>(engine_warmup.free_bytes),
               static_cast<unsigned long long>(engine_steady.allocs),
               static_cast<unsigned long long>(engine_steady.frees),
               static_cast<unsigned long long>(engine_steady.alloc_bytes),
               static_cast<unsigned long long>(engine_steady.free_bytes));
  if (!baseline_online.empty()) {
    std::fprintf(f, ",\n  \"online_baseline\": %s",
                 baseline_online.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace lmk::bench

int main() { return lmk::bench::run(); }
