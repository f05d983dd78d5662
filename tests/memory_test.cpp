// Tests for the flagship memory architecture: the struct-of-arrays
// EntryStore (src/core/entry_store) checked for equivalence against the
// vector<IndexEntry> layout it replaced, and the sampled streaming
// oracle (knn_truth_streamed) checked against the materialized
// brute-force batch oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/entry_store.hpp"
#include "eval/ground_truth.hpp"
#include "metric/dense.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

// ----- EntryStore vs the vector<IndexEntry> layout it replaced -----

IndexEntry make_entry(Rng& rng, std::size_t dims) {
  IndexEntry e;
  e.key = rng.next();
  e.object = rng.below(1000);
  e.point.resize(dims);
  for (auto& v : e.point) v = rng.uniform(0, 100);
  return e;
}

void expect_same(const EntryStore& store,
                 const std::vector<IndexEntry>& ref) {
  ASSERT_EQ(store.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(store.key(i), ref[i].key);
    EXPECT_EQ(store.object(i), ref[i].object);
    ASSERT_EQ(store.point(i).size(), ref[i].point.size());
    for (std::size_t d = 0; d < ref[i].point.size(); ++d) {
      EXPECT_EQ(store.point(i)[d], ref[i].point[d]);
    }
  }
}

TEST(EntryStore, MatchesReferenceVectorOnRandomOpTrace) {
  // Replay a recorded random operation trace against both layouts; the
  // SoA store must agree with the vector<IndexEntry> semantics op for
  // op (this is the refactor's equivalence contract).
  const std::size_t dims = 4;
  Rng rng(1234);
  EntryStore store;
  std::vector<IndexEntry> ref;
  for (int op = 0; op < 4000; ++op) {
    switch (rng.below(6)) {
      case 0:
      case 1: {  // push (weighted: stores grow)
        IndexEntry e = make_entry(rng, dims);
        store.push_back(e);
        ref.push_back(e);
        break;
      }
      case 2: {  // erase_at
        if (ref.empty()) break;
        std::size_t i = rng.below(ref.size());
        store.erase_at(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 3: {  // pop_back
        if (ref.empty()) break;
        store.pop_back();
        ref.pop_back();
        break;
      }
      case 4: {  // set_key
        if (ref.empty()) break;
        std::size_t i = rng.below(ref.size());
        Id k = rng.next();
        store.set_key(i, k);
        ref[i].key = k;
        break;
      }
      case 5: {  // erase_first by (object, key)
        if (ref.empty()) break;
        std::size_t i = rng.below(ref.size());
        std::uint64_t obj = ref[i].object;
        Id key = ref[i].key;
        bool got = store.erase_first(obj, key);
        auto it = std::find_if(ref.begin(), ref.end(),
                               [&](const IndexEntry& e) {
                                 return e.object == obj && e.key == key;
                               });
        ASSERT_TRUE(got);
        ref.erase(it);
        break;
      }
    }
  }
  expect_same(store, ref);
}

TEST(EntryStore, ExtractIfKeepsRelativeOrderBothSides) {
  const std::size_t dims = 3;
  Rng rng(77);
  EntryStore store, dst;
  std::vector<IndexEntry> ref, ref_dst;
  for (int i = 0; i < 500; ++i) {
    IndexEntry e = make_entry(rng, dims);
    store.push_back(e);
    ref.push_back(e);
  }
  auto pred = [](Id k) { return (k & 1) == 1; };
  store.extract_if(pred, dst);
  // Reference semantics: stable partition into survivors + extracted.
  std::vector<IndexEntry> survivors;
  for (const IndexEntry& e : ref) {
    if (pred(e.key)) {
      ref_dst.push_back(e);
    } else {
      survivors.push_back(e);
    }
  }
  expect_same(store, survivors);
  expect_same(dst, ref_dst);
}

TEST(EntryStore, AppendAndAppendMoved) {
  const std::size_t dims = 2;
  Rng rng(55);
  EntryStore a, b;
  std::vector<IndexEntry> ra, rb;
  for (int i = 0; i < 40; ++i) {
    IndexEntry e = make_entry(rng, dims);
    a.push_back(e);
    ra.push_back(e);
  }
  for (int i = 0; i < 25; ++i) {
    IndexEntry e = make_entry(rng, dims);
    b.push_back(e);
    rb.push_back(e);
  }
  a.append(b);
  ra.insert(ra.end(), rb.begin(), rb.end());
  expect_same(a, ra);
  expect_same(b, rb);  // append copies; src intact
  EntryStore c;
  c.append_moved(b);
  expect_same(c, rb);
  EXPECT_TRUE(b.empty());
  c.append_moved(a);  // non-empty destination path
  std::vector<IndexEntry> rc = rb;
  rc.insert(rc.end(), ra.begin(), ra.end());
  expect_same(c, rc);
  EXPECT_TRUE(a.empty());
}

TEST(EntryStore, SelfAliasingPushIsSafe) {
  EntryStore s;
  s.push_back(IndexEntry{7, 70, {1.0, 2.0}});
  s.push_back(IndexEntry{8, 80, {3.0, 4.0}});
  // push_back(front()) — the view's span points into s's own buffer,
  // which may reallocate during the push.
  for (int i = 0; i < 50; ++i) s.push_back(s.front());
  EXPECT_EQ(s.size(), 52u);
  for (std::size_t i = 2; i < s.size(); ++i) {
    EXPECT_EQ(s.key(i), 7u);
    EXPECT_EQ(s.object(i), 70u);
    EXPECT_EQ(s.point(i)[0], 1.0);
    EXPECT_EQ(s.point(i)[1], 2.0);
  }
}

TEST(EntryStore, MemoryBytesReflectsCapacity) {
  EntryStore s;
  EXPECT_EQ(s.memory_bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    s.push_back(IndexEntry{static_cast<Id>(i), 0, {1.0, 2.0, 3.0}});
  }
  // At least the payload: 100 * (key + object + 3 doubles).
  EXPECT_GE(s.memory_bytes(), 100u * (8u + 8u + 24u));
}

// ----- sampled streaming oracle vs materialized batch oracle -----

TEST(StreamedOracle, AgreesWithBruteForceBatch) {
  SyntheticConfig cfg;
  cfg.objects = 3000;
  cfg.dims = 12;
  cfg.clusters = 5;
  SyntheticStream stream(cfg, /*seed=*/99);
  // Materialize the whole stream once for the reference oracle.
  std::vector<DenseVector> dataset;
  dataset.reserve(cfg.objects);
  for (std::uint64_t i = 0; i < cfg.objects; ++i) {
    dataset.push_back(stream.point(i));
  }
  std::vector<DenseVector> queries;
  for (std::uint32_t t = 0; t < 8; ++t) {
    queries.push_back(stream.query_near(t % 5, t));
  }
  L2Space space;
  auto expect = knn_bruteforce_batch(space, dataset, queries, /*k=*/10);

  auto fill = [&](std::uint64_t first, std::span<DenseVector> out) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j].resize(cfg.dims);
      stream.point_into(first + j, out[j]);
    }
  };
  // Exact for any batch size, including one that does not divide n and
  // one larger than n.
  for (std::size_t batch : {64u, 999u, 4096u}) {
    auto got = knn_truth_streamed(space, cfg.objects, fill,
                                  std::span<const DenseVector>(queries),
                                  /*k=*/10, batch);
    EXPECT_EQ(got, expect) << "batch=" << batch;
  }
}

TEST(StreamedOracle, ThreadCountInvariant) {
  SyntheticConfig cfg;
  cfg.objects = 1500;
  cfg.dims = 8;
  SyntheticStream stream(cfg, 7);
  std::vector<DenseVector> queries;
  for (std::uint32_t t = 0; t < 6; ++t) {
    queries.push_back(stream.query_near(t, t));
  }
  L2Space space;
  auto fill = [&](std::uint64_t first, std::span<DenseVector> out) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j].resize(cfg.dims);
      stream.point_into(first + j, out[j]);
    }
  };
  set_threads(1);
  auto t1 = knn_truth_streamed(space, cfg.objects, fill,
                               std::span<const DenseVector>(queries), 10);
  set_threads(4);
  auto t4 = knn_truth_streamed(space, cfg.objects, fill,
                               std::span<const DenseVector>(queries), 10);
  set_threads(0);
  EXPECT_EQ(t1, t4);
}

TEST(StreamedOracle, SampleQueryIndicesSortedDistinctSeeded) {
  auto a = sample_query_indices(1000, 50, 3);
  auto b = sample_query_indices(1000, 50, 3);
  auto c = sample_query_indices(1000, 50, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_TRUE(std::adjacent_find(a.begin(), a.end()) == a.end());
  EXPECT_LT(a.back(), 1000u);
}

}  // namespace
}  // namespace lmk
