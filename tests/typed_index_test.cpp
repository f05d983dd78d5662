// Tests for the typed facade's extensions: k-NN by radius expansion,
// landmark re-indexing (the paper's dynamic-dataset future work),
// batch-at-a-time streaming load, landmark quality scoring, and Rocchio
// query expansion.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "ir/expansion.hpp"
#include "landmark/quality.hpp"
#include "landmark/selection.hpp"
#include "workload/corpus.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

struct TypedStack {
  TypedStack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

struct DenseFixture {
  DenseFixture() : stack(32, 21) {
    Rng rng(22);
    for (int i = 0; i < 3000; ++i) {
      points.push_back({rng.uniform(0, 100), rng.uniform(0, 100),
                        rng.uniform(0, 100)});
    }
    auto landmarks = greedy_selection(
        space, std::span<const DenseVector>(points), 4, rng);
    index = std::make_unique<LandmarkIndex<L2Space>>(
        *stack.platform, space,
        LandmarkMapper<L2Space>(space, std::move(landmarks),
                                uniform_boundary(4, 0, 175)),
        "knn-fixture");
    index->bind_objects(
        [this](std::uint64_t id) -> const DenseVector& { return points[id]; });
    for (std::size_t i = 0; i < points.size(); ++i) {
      index->insert(i, points[i]);
    }
  }

  std::vector<std::uint64_t> brute_knn(const DenseVector& q, std::size_t k) {
    return knn_bruteforce_with(
        points.size(),
        [&](std::size_t j) { return space.distance(q, points[j]); }, k);
  }

  TypedStack stack;
  L2Space space;
  std::vector<DenseVector> points;
  std::unique_ptr<LandmarkIndex<L2Space>> index;
};

TEST(KnnQuery, RadiusExpansionFindsExactNeighbors) {
  DenseFixture f;
  Rng rng(23);
  for (int t = 0; t < 10; ++t) {
    DenseVector q{rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100)};
    auto truth = f.brute_knn(q, 10);
    std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
    f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10,
                       /*r0=*/2.0, /*growth=*/2.0, /*r_max=*/200.0,
                       [&](const auto& o) { got = o; });
    f.stack.sim.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->exact);
    EXPECT_EQ(got->neighbors, truth) << "query " << t;
    EXPECT_GE(got->rounds, 1);
  }
}

TEST(KnnQuery, StartsSmallAndExpands) {
  DenseFixture f;
  DenseVector q{50, 50, 50};
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 0.5, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  // r0 = 0.5 cannot possibly hold 10 of 3000 uniform points; multiple
  // rounds were needed.
  EXPECT_GT(got->rounds, 2);
  EXPECT_TRUE(got->exact);
  EXPECT_EQ(got->neighbors, f.brute_knn(q, 10));
  // Totals accumulate across rounds.
  EXPECT_GT(got->totals.query_messages, 0u);
}

TEST(KnnQuery, RMaxCapsSearchAndFlagsInexact) {
  DenseFixture f;
  DenseVector q{50, 50, 50};
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  // r_max far too small to prove 10 neighbours.
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 0.5, 2.0, 1.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->exact);
  EXPECT_LE(got->neighbors.size(), 10u);
}

TEST(KnnQuery, KOneIsNearestNeighbor) {
  DenseFixture f;
  Rng rng(24);
  for (int t = 0; t < 5; ++t) {
    DenseVector q{rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100)};
    std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
    f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 1, 1.0, 2.0,
                       200.0, [&](const auto& o) { got = o; });
    f.stack.sim.run();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->neighbors.size(), 1u);
    EXPECT_EQ(got->neighbors[0], f.brute_knn(q, 1)[0]);
  }
}

TEST(Rebuild, NewLandmarksReindexEverything) {
  DenseFixture f;
  // Re-select landmarks with a different seed and rebuild.
  Rng rng(25);
  auto fresh = kmeans_dense(std::span<const DenseVector>(f.points), 4, rng);
  LandmarkMapper<L2Space> new_mapper(
      f.space, std::move(fresh),
      uniform_boundary(4, 0, 175));
  std::size_t rebuilt = f.index->rebuild(std::move(new_mapper), f.points);
  EXPECT_EQ(rebuilt, f.points.size());
  EXPECT_EQ(f.stack.platform->scheme_entries(f.index->scheme_id()),
            f.points.size());
  f.stack.platform->check_placement_invariant();
  // Queries remain exact under the new mapping.
  DenseVector q{30, 60, 20};
  auto truth = f.brute_knn(q, 10);
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 2.0, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->neighbors, truth);
}

TEST(Rebuild, BoundaryFollowsNewMapper) {
  DenseFixture f;
  Rng rng(26);
  auto fresh = greedy_selection(f.space,
                                std::span<const DenseVector>(f.points), 4,
                                rng);
  Boundary tight = boundary_from_sample(
      f.space, std::span<const DenseVector>(fresh),
      std::span<const DenseVector>(f.points).subspan(0, 200));
  LandmarkMapper<L2Space> new_mapper(f.space, std::move(fresh),
                                     std::move(tight));
  Boundary expected = new_mapper.boundary();
  f.index->rebuild(std::move(new_mapper), f.points);
  const Boundary& got =
      f.stack.platform->scheme(f.index->scheme_id()).boundary;
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t d = 0; d < got.size(); ++d) {
    EXPECT_DOUBLE_EQ(got[d].lo, expected[d].lo);
    EXPECT_DOUBLE_EQ(got[d].hi, expected[d].hi);
  }
}

TEST(RemoveTyped, RemovedObjectLeavesKnnResults) {
  DenseFixture f;
  DenseVector q{10, 10, 10};
  auto truth = f.brute_knn(q, 1);
  EXPECT_TRUE(f.index->remove(truth[0], f.points[truth[0]]));
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 1, 2.0, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->neighbors.size(), 1u);
  EXPECT_NE(got->neighbors[0], truth[0]);
}

// ----- streaming load -----

TEST(StreamLoad, StagesOneBatchAtATime) {
  TypedStack stack(16, 5);
  L2Space space;
  Rng rng(6);
  std::vector<DenseVector> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  LandmarkIndex<L2Space> index(
      *stack.platform, space,
      LandmarkMapper<L2Space>(space, {points[0], points[1]},
                              uniform_boundary(2, 0, 150)),
      "stream");
  // Object i is produced while exactly the batches before its own are
  // indexed: a load that staged more than one batch, or placed a batch
  // before producing all of it, reads a different count.
  constexpr std::size_t kBatch = 7;
  std::vector<std::size_t> indexed(points.size());
  index.stream_load(
      points.size(),
      [&](std::uint64_t i, DenseVector& out) {
        indexed[i] = stack.platform->scheme_entries(index.scheme_id());
        out = points[i];
      },
      kBatch);
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i], i - i % kBatch) << "object " << i;
  }
  EXPECT_EQ(stack.platform->scheme_entries(index.scheme_id()), points.size());
}

// ----- landmark quality (refresh decision rule) -----

TEST(LandmarkQuality, AdoptionDecisionFollowsSelectivityOrdering) {
  // Which selection scheme filters better is data-dependent; the
  // decision rule must simply agree with the measured selectivities and
  // respect the threshold margin.
  Rng rng(27);
  SyntheticConfig cfg;
  cfg.objects = 2000;
  cfg.dims = 30;
  cfg.clusters = 6;
  cfg.deviation = 5;
  auto data = generate_clustered(cfg, rng);
  auto queries = generate_queries(cfg, data, 20, rng);
  L2Space space;
  double max_dist = max_theoretical_distance(cfg);
  auto greedy = greedy_selection(
      space, std::span<const DenseVector>(data.points), 6, rng);
  auto kmeans =
      kmeans_dense(std::span<const DenseVector>(data.points), 6, rng);
  LandmarkMapper<L2Space> g(space, greedy, uniform_boundary(6, 0, max_dist));
  LandmarkMapper<L2Space> m(space, kmeans, uniform_boundary(6, 0, max_dist));
  double radius = 0.05 * max_dist;
  auto sample = std::span<const DenseVector>(data.points);
  auto probes = std::span<const DenseVector>(queries);
  double sg = filter_selectivity(g, sample, probes, radius);
  double sm = filter_selectivity(m, sample, probes, radius);
  EXPECT_GT(sg, 0.0);
  EXPECT_GT(sm, 0.0);
  const LandmarkMapper<L2Space>& better = sm < sg ? m : g;
  const LandmarkMapper<L2Space>& worse = sm < sg ? g : m;
  double ratio = std::min(sm, sg) / std::max(sm, sg);
  if (ratio < 0.95) {  // a clear winner exists
    EXPECT_TRUE(
        should_adopt_landmarks(worse, better, sample, probes, radius, 0.05));
    EXPECT_FALSE(
        should_adopt_landmarks(better, worse, sample, probes, radius, 0.05));
  }
  // A huge threshold always rejects the switch.
  EXPECT_FALSE(
      should_adopt_landmarks(worse, better, sample, probes, radius, 0.999));
}

TEST(LandmarkQuality, DegenerateLandmarksFilterWorst) {
  // k copies of one landmark give a rank-1 index space: every dimension
  // is identical, so the filter is as weak as a single landmark and
  // must be no better than a dispersed greedy set.
  Rng rng(30);
  L2Space space;
  std::vector<DenseVector> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back({rng.uniform(0, 10), rng.uniform(0, 10),
                      rng.uniform(0, 10)});
  }
  std::vector<DenseVector> probes(sample.begin(), sample.begin() + 10);
  auto greedy = greedy_selection(
      space, std::span<const DenseVector>(sample), 4, rng);
  std::vector<DenseVector> degenerate(4, sample[0]);
  LandmarkMapper<L2Space> good(space, greedy, uniform_boundary(4, 0, 20));
  LandmarkMapper<L2Space> bad(space, degenerate, uniform_boundary(4, 0, 20));
  double sg = filter_selectivity(good, std::span<const DenseVector>(sample),
                                 std::span<const DenseVector>(probes), 1.0);
  double sb = filter_selectivity(bad, std::span<const DenseVector>(sample),
                                 std::span<const DenseVector>(probes), 1.0);
  EXPECT_LE(sg, sb);
}

TEST(LandmarkQuality, SelectivityBoundsAndMonotonicity) {
  Rng rng(28);
  L2Space space;
  std::vector<DenseVector> sample;
  for (int i = 0; i < 300; ++i) {
    sample.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  auto lm = greedy_selection(space, std::span<const DenseVector>(sample), 3,
                             rng);
  LandmarkMapper<L2Space> mapper(space, lm, uniform_boundary(3, 0, 15));
  std::vector<DenseVector> probes(sample.begin(), sample.begin() + 10);
  double s_small = filter_selectivity(
      mapper, std::span<const DenseVector>(sample),
      std::span<const DenseVector>(probes), 0.5);
  double s_large = filter_selectivity(
      mapper, std::span<const DenseVector>(sample),
      std::span<const DenseVector>(probes), 5.0);
  EXPECT_GE(s_small, 0.0);
  EXPECT_LE(s_large, 1.0);
  EXPECT_LE(s_small, s_large);  // larger radius filters less
}

// ----- Rocchio query expansion -----

TEST(Rocchio, NoFeedbackReturnsOriginal) {
  SparseVector q({{1, 2.0}, {5, 1.0}});
  auto out = rocchio_expand(q, {});
  EXPECT_EQ(out.entries().size(), q.entries().size());
}

TEST(Rocchio, AddsStrongFeedbackTerms) {
  SparseVector q({{1, 2.0}});
  std::vector<SparseVector> feedback{
      SparseVector({{1, 1.0}, {7, 3.0}, {9, 0.1}}),
      SparseVector({{7, 2.5}, {8, 0.2}}),
  };
  RocchioOptions opts;
  opts.expansion_terms = 1;  // only the strongest new term survives
  auto out = rocchio_expand(q, feedback, opts);
  bool has7 = false, has8 = false, has9 = false;
  for (const auto& e : out.entries()) {
    if (e.term == 7) has7 = true;
    if (e.term == 8) has8 = true;
    if (e.term == 9) has9 = true;
  }
  EXPECT_TRUE(has7);   // dominant shared feedback term
  EXPECT_FALSE(has8);  // truncated
  EXPECT_FALSE(has9);
  // Original term keeps (alpha + beta*centroid) weight >= alpha*orig.
  EXPECT_GE(out.entries()[0].weight, 2.0);
}

TEST(Rocchio, ExpansionPullsQueryTowardTopic) {
  // Build a corpus; expansion with same-story documents must move the
  // query closer (in angle) to other documents of that story.
  Rng rng(29);
  CorpusConfig cfg;
  cfg.documents = 1500;
  cfg.vocabulary = 20000;
  cfg.topics = 15;
  cfg.stories_per_topic = 10;
  Corpus corpus(cfg, rng);
  AngularSpace ang;
  const auto& docs = corpus.documents();
  auto queries = corpus.make_queries(10, 3.5, rng);
  int improved = 0;
  for (const auto& q : queries) {
    // True top-5 as (idealized) feedback.
    auto truth = knn_bruteforce_with(
        docs.size(), [&](std::size_t j) { return ang.distance(q, docs[j]); },
        5);
    std::vector<SparseVector> feedback;
    for (auto id : truth) feedback.push_back(docs[id]);
    auto expanded = rocchio_expand(q, feedback);
    // Mean distance to the NEXT 20 true neighbours should shrink.
    auto wider = knn_bruteforce_with(
        docs.size(), [&](std::size_t j) { return ang.distance(q, docs[j]); },
        25);
    double before = 0, after = 0;
    for (std::size_t i = 5; i < wider.size(); ++i) {
      before += ang.distance(q, docs[wider[i]]);
      after += ang.distance(expanded, docs[wider[i]]);
    }
    if (after < before) ++improved;
  }
  EXPECT_GE(improved, 8);  // expansion helps nearly always
}

}  // namespace
}  // namespace lmk
