// Tests for the evaluation harness: brute-force ground truth, recall,
// QueryStats aggregation, and the experiment driver's caching paths.
#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "landmark/selection.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

TEST(GroundTruth, KnnOrderedAscendingWithTieBreak) {
  // Distances: id0 -> 3, id1 -> 1, id2 -> 1, id3 -> 2.
  std::vector<double> d{3, 1, 1, 2};
  auto knn = knn_bruteforce_with(4, [&](std::size_t i) { return d[i]; }, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0], 1u);  // tie with id2 broken by id
  EXPECT_EQ(knn[1], 2u);
  EXPECT_EQ(knn[2], 3u);
}

TEST(GroundTruth, KnnWithKLargerThanDataset) {
  std::vector<double> d{2, 1};
  auto knn = knn_bruteforce_with(2, [&](std::size_t i) { return d[i]; }, 10);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0], 1u);
}

TEST(GroundTruth, RangeBruteforceInclusive) {
  std::vector<double> d{0.5, 1.0, 1.5};
  auto in = range_bruteforce(3, [&](std::size_t i) { return d[i]; }, 1.0);
  EXPECT_EQ(in, (std::vector<std::uint64_t>{0, 1}));
}

TEST(GroundTruth, RecallDefinition) {
  std::vector<std::uint64_t> truth{1, 2, 3, 4};
  std::vector<std::uint64_t> got{2, 4, 9};
  EXPECT_DOUBLE_EQ(recall(truth, got), 0.5);
  EXPECT_DOUBLE_EQ(recall(truth, truth), 1.0);
  EXPECT_DOUBLE_EQ(recall({}, got), 1.0);  // empty truth: nothing to miss
  EXPECT_DOUBLE_EQ(recall(truth, {}), 0.0);
}

TEST(QueryStatsAgg, FoldsOutcomes) {
  QueryStats stats;
  IndexPlatform::QueryOutcome a;
  a.hops = 4;
  a.response_time = 100 * kMillisecond;
  a.max_latency = 200 * kMillisecond;
  a.query_bytes = 100;
  a.result_bytes = 50;
  a.query_messages = 3;
  a.index_nodes = 2;
  a.subqueries = 5;
  a.candidates = 40;
  a.max_node_candidates = 30;
  IndexPlatform::QueryOutcome b = a;
  b.hops = 8;
  b.lost_subqueries = 1;
  stats.add(a, 1.0);
  stats.add(b, 0.5);
  EXPECT_DOUBLE_EQ(stats.recall.mean(), 0.75);
  EXPECT_DOUBLE_EQ(stats.hops.mean(), 6.0);
  EXPECT_DOUBLE_EQ(stats.response_ms.mean(), 100.0);
  EXPECT_DOUBLE_EQ(stats.total_bytes.mean(), 150.0);
  EXPECT_DOUBLE_EQ(stats.candidates.mean(), 40.0);
  EXPECT_EQ(stats.incomplete, 1u);
  // Header and row stay in sync.
  EXPECT_EQ(QueryStats::header().size(), stats.row("x").size());
}

TEST(QueryStatsAgg, P95LatencyFromSamples) {
  QueryStats stats;
  for (int i = 1; i <= 100; ++i) {
    IndexPlatform::QueryOutcome o;
    o.max_latency = i * kMillisecond;
    stats.add(o, 1.0);
  }
  EXPECT_EQ(stats.latency_samples_ms.size(), 100u);
  EXPECT_NEAR(stats.p95_latency_ms(), 95.0, 1.0);
  QueryStats empty;
  EXPECT_DOUBLE_EQ(empty.p95_latency_ms(), 0.0);
}

TEST(ExperimentDriver, PrecomputedTruthMatchesLazyTruth) {
  SyntheticConfig cfg;
  cfg.objects = 800;
  cfg.dims = 8;
  cfg.clusters = 3;
  cfg.deviation = 6;
  Rng rng(50);
  auto data = generate_clustered(cfg, rng);
  auto queries = generate_queries(cfg, data, 10, rng);
  L2Space space;
  double max_dist = max_theoretical_distance(cfg);
  auto make_exp = [&]() {
    Rng lm_rng(51);
    auto landmarks = greedy_selection(
        space, std::span<const DenseVector>(data.points), 4, lm_rng);
    ExperimentConfig ecfg;
    ecfg.nodes = 16;
    ecfg.seed = 52;
    return std::make_unique<SimilarityExperiment<L2Space>>(
        ecfg, space, data.points,
        LandmarkMapper<L2Space>(space, landmarks,
                                uniform_boundary(4, 0, max_dist)),
        "truth-test");
  };
  auto lazy = make_exp();
  lazy->set_queries(queries);
  QueryStats s_lazy = lazy->run_batch(0.05 * max_dist);

  auto pre = make_exp();
  auto truth = SimilarityExperiment<L2Space>::compute_truth(
      space, data.points, queries, 10);
  pre->set_queries(queries, truth);
  QueryStats s_pre = pre->run_batch(0.05 * max_dist);

  EXPECT_DOUBLE_EQ(s_lazy.recall.mean(), s_pre.recall.mean());
  EXPECT_DOUBLE_EQ(s_lazy.hops.mean(), s_pre.hops.mean());
}

TEST(ExperimentDriver, LoadCurveSortedDescending) {
  SyntheticConfig cfg;
  cfg.objects = 500;
  cfg.dims = 4;
  cfg.clusters = 2;
  cfg.deviation = 3;
  Rng rng(53);
  auto data = generate_clustered(cfg, rng);
  L2Space space;
  Rng lm_rng(54);
  auto landmarks = greedy_selection(
      space, std::span<const DenseVector>(data.points), 3, lm_rng);
  ExperimentConfig ecfg;
  ecfg.nodes = 16;
  ecfg.seed = 55;
  SimilarityExperiment<L2Space> exp(
      ecfg, space, data.points,
      LandmarkMapper<L2Space>(space, landmarks, uniform_boundary(3, 0, 100)),
      "curve-test");
  auto curve = exp.load_curve();
  EXPECT_EQ(curve.size(), 16u);
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i + 1]);
    total += curve[i];
  }
  total += curve.back();
  EXPECT_EQ(total, 500u);
}

TEST(ExperimentDriver, RotationFlagReachesScheme) {
  SyntheticConfig cfg;
  cfg.objects = 100;
  cfg.dims = 4;
  cfg.clusters = 2;
  cfg.deviation = 3;
  Rng rng(56);
  auto data = generate_clustered(cfg, rng);
  L2Space space;
  Rng lm_rng(57);
  auto landmarks = greedy_selection(
      space, std::span<const DenseVector>(data.points), 3, lm_rng);
  ExperimentConfig ecfg;
  ecfg.nodes = 8;
  ecfg.seed = 58;
  ecfg.rotate = true;
  SimilarityExperiment<L2Space> exp(
      ecfg, space, data.points,
      LandmarkMapper<L2Space>(space, landmarks, uniform_boundary(3, 0, 100)),
      "rotated-scheme");
  EXPECT_NE(exp.platform().scheme(exp.index().scheme_id()).rotation, 0u);
}

}  // namespace
}  // namespace lmk
