// The parallel sweep engine (src/eval/sweep.hpp) and the experiment
// isolation contract it relies on: concurrent or interleaved
// SimilarityExperiment instances over shared immutable inputs must
// produce stats identical to isolated serial runs.
#include "eval/sweep.hpp"

#include <atomic>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "eval/experiment.hpp"
#include "landmark/selection.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

/// Restores the default thread configuration when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_threads(0); }
};

TEST(SweepDriver, OutputsInDeclarationOrderAtAnyThreadCount) {
  ThreadGuard guard;
  auto run_at = [&](std::size_t threads) {
    set_threads(threads);
    SweepDriver driver;
    for (int c = 0; c < 12; ++c) {
      driver.add_cell([c]() {
        CellOutput out;
        out.lines.push_back("line-" + std::to_string(c));
        out.rows.push_back({"cell", std::to_string(c * c)});
        return out;
      });
    }
    return driver.run();
  };
  auto t1 = run_at(1);
  auto t8 = run_at(8);
  ASSERT_EQ(t1.size(), 12u);
  ASSERT_EQ(t8.size(), 12u);
  for (int c = 0; c < 12; ++c) {
    EXPECT_EQ(t1[c].lines,
              (std::vector<std::string>{"line-" + std::to_string(c)}));
    EXPECT_EQ(t1[c].rows, t8[c].rows);
    EXPECT_EQ(t1[c].lines, t8[c].lines);
  }
}

TEST(SweepDriver, ResidentCapBoundsConcurrentCells) {
  ThreadGuard guard;
  set_threads(2);
  SweepDriver driver;
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> peak{0};
  for (int c = 0; c < 10; ++c) {
    driver.add_cell([&]() {
      std::size_t now = active.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::atomic<int> spin{0};
      while (spin.fetch_add(1, std::memory_order_relaxed) < 2000) {
      }
      active.fetch_sub(1);
      return CellOutput{};
    });
  }
  EXPECT_EQ(driver.resident_cap(), 2u);
  auto outs = driver.run();
  EXPECT_EQ(outs.size(), 10u);
  EXPECT_LE(peak.load(), 2u);
  EXPECT_LE(driver.peak_resident(), 2u);
}

// ---------------------------------------------------------------------
// Experiment isolation: shared immutable inputs, private mutable state.
// ---------------------------------------------------------------------

struct SmallWorkload {
  SyntheticConfig cfg;
  SyntheticDataset data;
  std::vector<DenseVector> query_points;
  double max_dist;
  L2Space space;

  SmallWorkload() {
    cfg.objects = 700;
    cfg.dims = 8;
    cfg.clusters = 3;
    cfg.deviation = 6;
    Rng rng(60);
    data = generate_clustered(cfg, rng);
    query_points = generate_queries(cfg, data, 8, rng);
    max_dist = max_theoretical_distance(cfg);
  }

  [[nodiscard]] LandmarkMapper<L2Space> mapper(std::uint64_t seed) const {
    Rng lm_rng(seed);
    auto landmarks = greedy_selection(
        space, std::span<const DenseVector>(data.points), 4, lm_rng);
    return LandmarkMapper<L2Space>(space, landmarks,
                                   uniform_boundary(4, 0, max_dist));
  }
};

using ExpHandle = std::unique_ptr<SimilarityExperiment<L2Space>>;

ExpHandle make_experiment(const SmallWorkload& w, std::uint64_t mapper_seed,
                          const std::string& name) {
  ExperimentConfig ecfg;
  ecfg.nodes = 16;
  ecfg.seed = 61;
  auto exp = std::make_unique<SimilarityExperiment<L2Space>>(
      ecfg, w.space, w.data.points, w.mapper(mapper_seed), name);
  exp->set_queries(w.query_points);
  return exp;
}

std::vector<std::vector<std::string>> batch_rows(
    SimilarityExperiment<L2Space>& exp, const SmallWorkload& w) {
  std::vector<std::vector<std::string>> rows;
  for (double f : {0.02, 0.05, 0.10}) {
    rows.push_back(exp.run_batch(f * w.max_dist).row("b"));
  }
  return rows;
}

TEST(ExperimentReentrancy, InterleavedBatchesMatchIsolatedRuns) {
  ThreadGuard guard;
  set_threads(1);
  SmallWorkload w;

  // Isolated: each experiment runs its whole batch sequence alone.
  auto iso_a = make_experiment(w, 62, "A");
  auto iso_b = make_experiment(w, 63, "B");
  auto rows_a = batch_rows(*iso_a, w);
  auto rows_b = batch_rows(*iso_b, w);

  // Interleaved: the same two experiment configs alternate run_batch
  // calls. No shared mutable state means the per-batch stats must be
  // identical to the isolated sequences.
  auto int_a = make_experiment(w, 62, "A");
  auto int_b = make_experiment(w, 63, "B");
  std::vector<std::vector<std::string>> got_a, got_b;
  for (double f : {0.02, 0.05, 0.10}) {
    got_a.push_back(int_a->run_batch(f * w.max_dist).row("b"));
    got_b.push_back(int_b->run_batch(f * w.max_dist).row("b"));
  }
  EXPECT_EQ(got_a, rows_a);
  EXPECT_EQ(got_b, rows_b);
}

TEST(ExperimentSharing, SharedHandlesMatchOwnedCopies) {
  ThreadGuard guard;
  set_threads(1);
  SmallWorkload w;

  ExperimentConfig ecfg;
  ecfg.nodes = 16;
  ecfg.seed = 61;

  // Owned path: by-value dataset/queries, lazy truth.
  SimilarityExperiment<L2Space> owned(ecfg, w.space, w.data.points,
                                      w.mapper(64), "owned");
  auto truth = SimilarityExperiment<L2Space>::compute_truth(
      w.space, w.data.points, w.query_points, 10);
  owned.set_queries(w.query_points, truth);

  // Shared path: one handle per input, shared topology, identical cfg.
  auto dataset =
      std::make_shared<const std::vector<DenseVector>>(w.data.points);
  auto queries =
      std::make_shared<const std::vector<DenseVector>>(w.query_points);
  auto truth_handle = std::make_shared<
      const std::vector<std::vector<std::uint64_t>>>(truth);
  auto topology = SimilarityExperiment<L2Space>::make_topology(ecfg);
  SimilarityExperiment<L2Space> shared_a(ecfg, w.space, dataset,
                                         w.mapper(64), "shared-a", topology);
  SimilarityExperiment<L2Space> shared_b(ecfg, w.space, dataset,
                                         w.mapper(64), "shared-b", topology);
  shared_a.set_queries(queries, truth_handle);
  shared_b.set_queries(queries, truth_handle);

  for (double f : {0.02, 0.05}) {
    auto want = owned.run_batch(f * w.max_dist).row("r");
    EXPECT_EQ(shared_a.run_batch(f * w.max_dist).row("r"), want);
    EXPECT_EQ(shared_b.run_batch(f * w.max_dist).row("r"), want);
  }
}

TEST(ExperimentSharing, MismatchedTopologyHandleIsRebuiltSilently) {
  ThreadGuard guard;
  set_threads(1);
  SmallWorkload w;

  ExperimentConfig ecfg;
  ecfg.nodes = 16;
  ecfg.seed = 61;
  // A topology built for a DIFFERENT config: the experiment must ignore
  // it (options mismatch) and build its own, producing the same results
  // as no handle at all.
  ExperimentConfig other = ecfg;
  other.seed = 999;
  auto wrong_topology = SimilarityExperiment<L2Space>::make_topology(other);

  SimilarityExperiment<L2Space> plain(ecfg, w.space, w.data.points,
                                      w.mapper(65), "plain");
  auto dataset =
      std::make_shared<const std::vector<DenseVector>>(w.data.points);
  SimilarityExperiment<L2Space> with_wrong(
      ecfg, w.space, dataset, w.mapper(65), "wrong-topo", wrong_topology);
  plain.set_queries(w.query_points);
  with_wrong.set_queries(
      std::make_shared<const std::vector<DenseVector>>(w.query_points));
  auto want = plain.run_batch(0.05 * w.max_dist).row("r");
  EXPECT_EQ(with_wrong.run_batch(0.05 * w.max_dist).row("r"), want);
}

TEST(SweepDriver, ConcurrentExperimentCellsMatchSerialCells) {
  ThreadGuard guard;
  SmallWorkload w;
  auto dataset =
      std::make_shared<const std::vector<DenseVector>>(w.data.points);
  auto queries =
      std::make_shared<const std::vector<DenseVector>>(w.query_points);
  auto truth = std::make_shared<
      const std::vector<std::vector<std::uint64_t>>>(
      SimilarityExperiment<L2Space>::compute_truth(
          w.space, w.data.points, w.query_points, 10));

  auto run_at = [&](std::size_t threads) {
    set_threads(threads);
    ExperimentConfig ecfg;
    ecfg.nodes = 16;
    ecfg.seed = 61;
    auto topology = SimilarityExperiment<L2Space>::make_topology(ecfg);
    SweepDriver driver;
    for (std::uint64_t seed : {70ull, 71ull, 72ull, 73ull}) {
      driver.add_cell([&, seed]() {
        SimilarityExperiment<L2Space> exp(ecfg, w.space, dataset,
                                          w.mapper(seed),
                                          "cell-" + std::to_string(seed),
                                          topology);
        exp.set_queries(queries, truth);
        CellOutput out;
        out.rows.push_back(exp.run_batch(0.05 * w.max_dist).row("r"));
        return out;
      });
    }
    return driver.run();
  };
  auto serial = run_at(1);
  auto parallel = run_at(8);
  ASSERT_EQ(serial.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rows, parallel[i].rows) << "cell " << i;
  }
}

}  // namespace
}  // namespace lmk
