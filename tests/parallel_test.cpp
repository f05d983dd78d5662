// The deterministic thread pool (common/parallel.hpp) and the
// bit-identical-across-thread-counts contract of the offline phases it
// accelerates: ground-truth oracle, landmark selection, index-space
// mapping, and bulk insert placement.
#include "common/parallel.hpp"

#include <atomic>
#include <functional>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "chord/ring.hpp"
#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "landmark/mapper.hpp"
#include "landmark/selection.hpp"
#include "net/latency_model.hpp"
#include "sim/network.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

/// Restores the default thread configuration when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_threads(0); }
};

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  ThreadGuard guard;
  for (std::size_t t : {1u, 8u}) {
    set_threads(t);
    std::atomic<int> calls{0};
    parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (std::size_t t : {1u, 3u, 8u}) {
    set_threads(t);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << t;
    }
  }
}

TEST(ParallelFor, FewerItemsThanChunksOrThreads) {
  ThreadGuard guard;
  set_threads(8);
  std::vector<std::atomic<int>> hits(3);
  // grain 1 → 3 chunks for 8 threads; the surplus workers find nothing.
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               /*grain=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Single index still works.
  std::atomic<int> one{0};
  parallel_for(1, [&](std::size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelFor, ExceptionsPropagateAndPoolSurvives) {
  ThreadGuard guard;
  for (std::size_t t : {1u, 4u}) {
    set_threads(t);
    EXPECT_THROW(
        parallel_for(
            100,
            [&](std::size_t i) {
              if (i == 57) throw std::runtime_error("boom");
            },
            /*grain=*/1),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> calls{0};
    parallel_for(10, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 10);
  }
}

TEST(ParallelChunks, BoundariesIndependentOfThreadCount) {
  ThreadGuard guard;
  // Per-chunk partial sums merged in chunk order must be bit-identical
  // for any thread count: chunk boundaries depend only on n and grain.
  auto chunk_sums = [](std::size_t threads) {
    set_threads(threads);
    std::vector<double> values(10000);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = 1.0 / static_cast<double>(i + 1);
    }
    std::size_t grain = detail::default_grain(values.size());
    std::size_t chunks = (values.size() + grain - 1) / grain;
    std::vector<double> partial(chunks, 0.0);
    parallel_chunks(values.size(), [&](std::size_t b, std::size_t e) {
      double acc = 0;
      for (std::size_t i = b; i < e; ++i) acc += values[i];
      partial[b / grain] = acc;
    });
    double total = 0;
    for (double p : partial) total += p;
    return total;
  };
  double t1 = chunk_sums(1);
  double t8 = chunk_sums(8);
  EXPECT_EQ(t1, t8);  // bitwise, not approximate
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard;
  set_threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(8, [&](std::size_t outer) {
    parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------
// parallel_tasks: task-level submission (the sweep engine's substrate).
// ---------------------------------------------------------------------

TEST(ParallelTasks, CoversEveryTaskExactlyOnce) {
  ThreadGuard guard;
  for (std::size_t t : {1u, 3u, 8u}) {
    set_threads(t);
    std::vector<std::atomic<int>> hits(100);
    parallel_tasks(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads " << t;
    }
  }
}

TEST(ParallelTasks, ZeroTasksNeverInvokes) {
  ThreadGuard guard;
  set_threads(4);
  std::atomic<int> calls{0};
  parallel_tasks(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelTasks, NestedParallelForDoesNotDeadlock) {
  ThreadGuard guard;
  set_threads(4);
  std::vector<std::atomic<int>> hits(4 * 32);
  parallel_tasks(
      4,
      [&](std::size_t task) {
        // Inside a worker, nested parallel_for runs inline with the same
        // chunk boundaries.
        parallel_for(32, [&](std::size_t i) {
          hits[task * 32 + i].fetch_add(1);
        });
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTasks, ExceptionsPropagateAndPoolSurvives) {
  ThreadGuard guard;
  set_threads(4);
  EXPECT_THROW(parallel_tasks(20,
                              [&](std::size_t i) {
                                if (i == 13) {
                                  throw std::runtime_error("cell boom");
                                }
                              }),
               std::runtime_error);
  std::atomic<int> calls{0};
  parallel_tasks(10, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

// ---------------------------------------------------------------------
// Determinism of the parallelized offline phases: every result below
// must be bit-identical between LMK_THREADS=1 and LMK_THREADS=8.
// ---------------------------------------------------------------------

SyntheticDataset small_dataset() {
  SyntheticConfig cfg;
  cfg.objects = 1500;
  cfg.dims = 12;
  cfg.clusters = 5;
  cfg.deviation = 10;
  Rng rng(77);
  return generate_clustered(cfg, rng);
}

TEST(ParallelDeterminism, OracleBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SyntheticDataset data = small_dataset();
  Rng qrng(5);
  std::vector<DenseVector> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(data.points[qrng.below(data.points.size())]);
  }
  L2Space l2;
  set_threads(1);
  auto truth1 = knn_bruteforce_batch(l2, data.points, queries, 10);
  set_threads(8);
  auto truth8 = knn_bruteforce_batch(l2, data.points, queries, 10);
  EXPECT_EQ(truth1, truth8);
}

TEST(ParallelDeterminism, KMeansBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SyntheticDataset data = small_dataset();
  set_threads(1);
  Rng rng1(99);
  auto c1 = kmeans_dense(std::span<const DenseVector>(data.points), 8, rng1);
  set_threads(8);
  Rng rng8(99);
  auto c8 = kmeans_dense(std::span<const DenseVector>(data.points), 8, rng8);
  ASSERT_EQ(c1.size(), c8.size());
  EXPECT_EQ(c1, c8);  // element-wise double ==, i.e. bit-identical values
  // Both runs must also have consumed the same rng draws.
  EXPECT_EQ(rng1.next(), rng8.next());
}

TEST(ParallelDeterminism, GreedyBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SyntheticDataset data = small_dataset();
  L2Space l2;
  set_threads(1);
  Rng rng1(31);
  auto g1 = greedy_selection(l2, std::span<const DenseVector>(data.points),
                             10, rng1);
  set_threads(8);
  Rng rng8(31);
  auto g8 = greedy_selection(l2, std::span<const DenseVector>(data.points),
                             10, rng8);
  EXPECT_EQ(g1, g8);
}

TEST(ParallelDeterminism, BulkInsertMatchesSequentialInsert) {
  ThreadGuard guard;
  SyntheticDataset data = small_dataset();
  L2Space l2;
  Rng rng(17);
  auto landmarks =
      greedy_selection(l2, std::span<const DenseVector>(data.points), 4, rng);
  LandmarkMapper<L2Space> mapper(l2, landmarks, uniform_boundary(4, 0, 1000));

  // Every node's store in ring order, entry by entry: (key, object,
  // coordinates). Coordinates are compared bit for bit, so this also
  // pins the landmark mapping across thread counts.
  using Row = std::tuple<Id, std::uint64_t, std::vector<double>>;
  using Placement = std::vector<std::pair<Id, std::vector<Row>>>;
  using Load = std::function<void(LandmarkIndex<L2Space>&)>;
  auto build = [&](std::size_t threads, const Load& load) {
    set_threads(threads);
    auto sim = std::make_unique<Simulator>();
    auto topo = std::make_unique<ConstantLatencyModel>(32, kMillisecond);
    auto net = std::make_unique<Network>(*sim, *topo);
    auto ring = std::make_unique<Ring>(*net, Ring::Options{});
    for (HostId h = 0; h < 32; ++h) ring->create_node(h);
    ring->bootstrap();
    auto platform = std::make_unique<IndexPlatform>(*ring);
    LandmarkIndex<L2Space> index(*platform, l2, mapper, "det");
    load(index);
    Placement out;
    for (const ChordNode* n : ring->alive_nodes()) {
      std::vector<Row> rows;
      for (EntryView e : platform->store(*n, index.scheme_id())) {
        rows.emplace_back(e.key, e.object,
                          std::vector<double>(e.point.begin(), e.point.end()));
      }
      out.emplace_back(n->id(), std::move(rows));
    }
    return out;
  };

  const Placement sequential = build(1, [&](LandmarkIndex<L2Space>& index) {
    for (std::size_t i = 0; i < data.points.size(); ++i) {
      index.insert(i, data.points[i]);
    }
  });
  for (std::size_t threads : {1u, 8u}) {
    EXPECT_EQ(build(threads,
                    [&](LandmarkIndex<L2Space>& index) {
                      index.bulk_load(data.points);
                    }),
              sequential)
        << "bulk_load, threads " << threads;
    for (std::size_t batch : {1u, 7u, 8192u}) {
      EXPECT_EQ(build(threads,
                      [&](LandmarkIndex<L2Space>& index) {
                        index.stream_load(
                            data.points.size(),
                            [&](std::uint64_t i, DenseVector& out) {
                              out = data.points[i];
                            },
                            batch);
                      }),
                sequential)
          << "stream_load, batch " << batch << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace lmk
