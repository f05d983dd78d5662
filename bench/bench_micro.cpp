// Micro-benchmarks (google-benchmark) for the hot kernels: the
// locality-preserving hash, query splitting, metric distance functions,
// landmark mapping, Chord routing-table scans and the local-store probe.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "chord/ring.hpp"
#include "eval/ground_truth.hpp"
#include "landmark/mapper.hpp"
#include "lph/lph.hpp"
#include "metric/dense.hpp"
#include "metric/edit_distance.hpp"
#include "metric/sparse_vector.hpp"
#include "routing/query.hpp"
#include "store/local_store.hpp"

namespace lmk {
namespace {

void BM_LphHash(benchmark::State& state) {
  auto dims = static_cast<std::size_t>(state.range(0));
  Boundary b = uniform_boundary(dims, 0, 1000);
  Rng rng(1);
  IndexPoint p(dims);
  for (auto& v : p) v = rng.uniform(0, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lph_hash(p, b));
  }
}
BENCHMARK(BM_LphHash)->Arg(2)->Arg(5)->Arg(10)->Arg(20);

// The same hash over 4,096 random points in turn: the half taken at each
// division changes from call to call, as it does when a store loads.
// BM_LphHash's one fixed point lets every branch predict perfectly.
void BM_LphHashVaryingPoint(benchmark::State& state) {
  auto dims = static_cast<std::size_t>(state.range(0));
  Boundary b = uniform_boundary(dims, 0, 1000);
  Rng rng(1);
  constexpr std::size_t kPoints = 4096;
  std::vector<double> rows(kPoints * dims);
  for (auto& v : rows) v = rng.uniform(0, 1000);
  const std::span<const double> all(rows);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lph_hash(all.subspan(i * dims, dims), b));
    i = (i + 1) % kPoints;
  }
}
BENCHMARK(BM_LphHashVaryingPoint)->Arg(2)->Arg(5)->Arg(10)->Arg(20);

void BM_EnclosingPrefix(benchmark::State& state) {
  auto dims = static_cast<std::size_t>(state.range(0));
  Boundary b = uniform_boundary(dims, 0, 1000);
  Region r;
  for (std::size_t d = 0; d < dims; ++d) {
    r.ranges.push_back(Interval{430.0 + static_cast<double>(d), 470.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(enclosing_prefix(r, b));
  }
}
BENCHMARK(BM_EnclosingPrefix)->Arg(5)->Arg(10);

void BM_QuerySplit(benchmark::State& state) {
  SchemeRouting scheme;
  scheme.boundary = uniform_boundary(5, 0, 1000);
  scheme.query_message_bytes = query_message_size(5);
  Region r;
  for (int d = 0; d < 5; ++d) r.ranges.push_back(Interval{400, 600});
  RangeQuery q;
  make_query(scheme, 1, 0, r, IndexPoint(5, 500.0), &q);
  const Prefix parent = q.prefix;
  // The router's path: plan, then split consuming the parent. The lower
  // child holds the parent's region afterwards; undoing its narrowing
  // makes it the next iteration's parent.
  for (auto _ : state) {
    QuerySplitPlan plan = plan_query_split(q, parent.length + 1);
    const double hi = q.region.ranges[static_cast<std::size_t>(plan.dim)].hi;
    auto [upper, lower] = split_query(std::move(q), plan);
    benchmark::DoNotOptimize(upper.region.ranges.data());
    q = std::move(lower);
    q.prefix = parent;
    q.region.ranges[static_cast<std::size_t>(plan.dim)].hi = hi;
  }
}
BENCHMARK(BM_QuerySplit);

void BM_L2Distance(benchmark::State& state) {
  auto dims = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  DenseVector a(dims), b(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    a[d] = rng.uniform();
    b[d] = rng.uniform();
  }
  L2Space space;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.distance(a, b));
  }
}
BENCHMARK(BM_L2Distance)->Arg(100);

// Dense storage comparison: one L2 scan over the whole point set, rows
// held contiguously (DenseMatrix) vs one heap vector per point. The gap
// is the pointer-chasing / cache-miss cost the contiguous layout
// removes from the oracle and k-means hot loops.
void BM_L2ScanVecOfVec(benchmark::State& state) {
  auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<DenseVector> pts(rows, DenseVector(100));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.uniform(0, 100);
  }
  DenseVector q(100);
  for (auto& v : q) v = rng.uniform(0, 100);
  L2Space space;
  for (auto _ : state) {
    double acc = 0;
    for (const auto& p : pts) acc += space.distance(q, p);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_L2ScanVecOfVec)->Arg(10000);

void BM_L2ScanDenseMatrix(benchmark::State& state) {
  auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<DenseVector> pts(rows, DenseVector(100));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.uniform(0, 100);
  }
  DenseMatrix m = DenseMatrix::from_rows(pts);
  DenseVector q(100);
  for (auto& v : q) v = rng.uniform(0, 100);
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      acc += l2_distance(q, m.row(r));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_L2ScanDenseMatrix)->Arg(10000);

// Squared-distance scan: same layout as above but deferring the sqrt —
// the comparison-only path k-means assignment and the oracle ranking
// use.
void BM_L2SquaredScanDenseMatrix(benchmark::State& state) {
  auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<DenseVector> pts(rows, DenseVector(100));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.uniform(0, 100);
  }
  DenseMatrix m = DenseMatrix::from_rows(pts);
  DenseVector q(100);
  for (auto& v : q) v = rng.uniform(0, 100);
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      acc += l2_squared(q, m.row(r));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_L2SquaredScanDenseMatrix)->Arg(10000);

// knn_bruteforce_with: the templated kernel that inlines the distance
// callable.
void BM_KnnBruteforceTemplated(benchmark::State& state) {
  Rng rng(22);
  std::vector<DenseVector> pts(4096, DenseVector(32));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.uniform(0, 100);
  }
  DenseMatrix m = DenseMatrix::from_rows(pts);
  DenseVector q(32);
  for (auto& v : q) v = rng.uniform(0, 100);
  for (auto _ : state) {
    // Squared distances: same ranking, no sqrt, no indirection.
    benchmark::DoNotOptimize(knn_bruteforce_with(
        m.rows(), [&](std::size_t i) { return l2_squared(q, m.row(i)); },
        10));
  }
}
BENCHMARK(BM_KnnBruteforceTemplated);

void BM_AngularDistance(benchmark::State& state) {
  Rng rng(3);
  auto make = [&rng]() {
    std::vector<SparseEntry> e;
    for (int i = 0; i < 155; ++i) {
      e.push_back(SparseEntry{static_cast<std::uint32_t>(rng.below(200000)),
                              rng.uniform(0.1, 5)});
    }
    return SparseVector(std::move(e));
  };
  SparseVector a = make(), b = make();
  AngularSpace space;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.distance(a, b));
  }
}
BENCHMARK(BM_AngularDistance);

void BM_EditDistance(benchmark::State& state) {
  auto len = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::string a, b;
  for (std::size_t i = 0; i < len; ++i) {
    a.push_back("acgt"[rng.below(4)]);
    b.push_back("acgt"[rng.below(4)]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(edit_distance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(50)->Arg(200);

void BM_EditDistanceBounded(benchmark::State& state) {
  Rng rng(5);
  std::string a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back("acgt"[rng.below(4)]);
    b.push_back("acgt"[rng.below(4)]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(edit_distance_bounded(a, b, 10));
  }
}
BENCHMARK(BM_EditDistanceBounded);

void BM_LandmarkMap(benchmark::State& state) {
  Rng rng(6);
  L2Space space;
  std::vector<DenseVector> landmarks;
  for (int l = 0; l < 10; ++l) {
    DenseVector lm(100);
    for (auto& v : lm) v = rng.uniform(0, 100);
    landmarks.push_back(std::move(lm));
  }
  LandmarkMapper<L2Space> mapper(space, std::move(landmarks),
                                 uniform_boundary(10, 0, 1000));
  DenseVector p(100);
  for (auto& v : p) v = rng.uniform(0, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(p));
  }
}
BENCHMARK(BM_LandmarkMap);

void BM_ChordNextHop(benchmark::State& state) {
  Simulator sim;
  ConstantLatencyModel topo(1024, kMillisecond);
  Network net(sim, topo);
  Ring::Options opts;
  Ring ring(net, opts);
  for (HostId h = 0; h < 1024; ++h) ring.create_node(h);
  ring.bootstrap();
  ChordNode& n = ring.node(0);
  Rng rng(7);
  Id key = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(n.next_hop(key));
    key = key * 0x9e3779b97f4a7c15ull + 1;
  }
}
BENCHMARK(BM_ChordNextHop);

void BM_OracleSuccessor(benchmark::State& state) {
  Simulator sim;
  ConstantLatencyModel topo(1740, kMillisecond);
  Network net(sim, topo);
  Ring::Options opts;
  Ring ring(net, opts);
  for (HostId h = 0; h < 1740; ++h) ring.create_node(h);
  ring.bootstrap();
  Rng rng(8);
  Id key = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.oracle_successor(key));
    key = key * 0x9e3779b97f4a7c15ull + 1;
  }
}
BENCHMARK(BM_OracleSuccessor);

// LocalStore::range on fresh indices, 10 dims, in the two store shapes
// the perfbench workloads probe. Arg 0: 256 stores of 80 rows probed
// round-robin, so the indices are not cache-resident between probes of
// one store (balanced-range), with boxes of half-width 0.02 of the
// boundary (its range factor). Arg 1: one 90,000-row hot store with
// boxes of half-width 0.05 (topk-recall). Each row adds one latent
// offset to all its coordinates plus per-dimension noise, so a store's
// dimensions correlate the way landmark distances do; every box is
// centred on a stored point. The offset's spread is set so a probe
// scans about 6 of 80 rows (balanced-range reads 8.8) and finds about
// 2,900 hits in the hot store (topk-recall about 2,700).
void BM_LocalStoreRange(benchmark::State& state) {
  constexpr std::size_t kDims = 10;
  const bool hot = state.range(0) == 1;
  const std::size_t stores = hot ? 1 : 256;
  const std::size_t rows = hot ? 90000 : 80;
  const double half = hot ? 0.05 : 0.02;
  const double spread = hot ? 0.15 : 0.1;
  Rng rng(9);
  std::vector<EntryStore> entries(stores);
  std::vector<LocalStore> index(stores);
  std::vector<Region> boxes;  // boxes[i] probes store i % stores
  IndexPoint pt(kDims);
  for (std::size_t s = 0; s < stores; ++s) {
    IndexPoint centre(kDims);
    for (double& c : centre) c = rng.uniform(0.2, 0.8);
    for (std::size_t i = 0; i < rows; ++i) {
      const double shared = rng.normal(0, spread);
      for (std::size_t d = 0; d < kDims; ++d) {
        pt[d] = std::clamp(centre[d] + shared + rng.normal(0, 0.02), 0.0, 1.0);
      }
      entries[s].push_back(rng.next(), i, pt);
    }
    index[s].build(entries[s]);
  }
  for (std::size_t i = 0; i < 4096; ++i) {
    const EntryStore& e = entries[i % stores];
    const auto p = e.point(rng.below(e.size()));
    Region box;
    for (double c : p) box.ranges.push_back(Interval{c - half, c + half});
    boxes.push_back(std::move(box));
  }
  std::vector<std::uint32_t> hits;
  std::size_t probe = 0;
  std::uint64_t scanned = 0;
  std::uint64_t found = 0;
  for (auto _ : state) {
    const std::size_t s = probe % stores;
    hits.clear();
    scanned += index[s].range(entries[s], boxes[probe], hits);
    found += hits.size();
    probe = (probe + 1) % boxes.size();
  }
  const auto probes = static_cast<double>(state.iterations());
  state.counters["scanned"] = static_cast<double>(scanned) / probes;
  state.counters["hits"] = static_cast<double>(found) / probes;
}
BENCHMARK(BM_LocalStoreRange)->Arg(0)->Arg(1);

}  // namespace
}  // namespace lmk
