// LocalStore: brute-force conformance in all three states a store can be
// probed in (fresh build, stale scanning, amortized rebuild), exactness
// over random mutation traces with probes between mutations, the probe
// on which the deferred rebuild fires, ascending hit order, and the
// platform's build accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/index_platform.hpp"
#include "store/local_store.hpp"

namespace lmk {
namespace {

EntryStore random_store(Rng& rng, std::size_t n, std::size_t dims) {
  EntryStore s;
  for (std::size_t i = 0; i < n; ++i) {
    IndexPoint pt(dims);
    for (double& c : pt) c = rng.uniform();
    s.push_back(static_cast<Id>(rng.next()), i, pt);
  }
  return s;
}

Region random_region(Rng& rng, std::size_t dims, double width) {
  Region r;
  for (std::size_t d = 0; d < dims; ++d) {
    const double lo = rng.uniform() * (1.0 - width);
    r.ranges.push_back(Interval{lo, lo + width});
  }
  return r;
}

Region unit_region(std::size_t dims) {
  return Region{std::vector<Interval>(dims, Interval{0, 1})};
}

std::vector<std::uint32_t> brute_range(const EntryStore& s, const Region& r) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (linf_box_distance(s.point(i), r) == 0.0) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

enum class State { kFresh, kStale, kRebuilt };
constexpr State kAllStates[] = {State::kFresh, State::kStale,
                                State::kRebuilt};

const char* state_name(State s) {
  switch (s) {
    case State::kFresh:
      return "fresh";
    case State::kStale:
      return "stale";
    case State::kRebuilt:
      return "rebuilt";
  }
  return "?";
}

// A store over `rows` in `state`. The stale and rebuilt stores were built
// before the last row arrived — a node that took a write after its first
// probe — so a probe that trusted the old indices would miss that row.
std::unique_ptr<LocalStore> store_in(State state, const EntryStore& rows) {
  auto ls = std::make_unique<LocalStore>();
  if (state == State::kFresh) {
    ls->build(rows);
    return ls;
  }
  EntryStore before = rows;
  before.pop_back();
  ls->build(before);
  ls->invalidate();
  if (state == State::kRebuilt) {
    // Probe until the rule fires; every probe before it scans all rows.
    const Region all = unit_region(rows.dims());
    std::vector<std::uint32_t> out;
    while (ls->stats().rebuilds == 1) {
      out.clear();
      ls->range(rows, all, out);
    }
  }
  return ls;
}

// ---------------------------------------------------------------------
// Conformance: brute-force equality in every state.

TEST(LocalStoreConformance, RangeReturnsOnlyContainedEntriesNoDuplicates) {
  Rng rng(11);
  const EntryStore rows = random_store(rng, 500, 4);
  for (State state : kAllStates) {
    auto ls = store_in(state, rows);
    for (int t = 0; t < 20; ++t) {
      const Region r = random_region(rng, 4, 0.3);
      std::vector<std::uint32_t> out;
      const std::size_t scanned = ls->range(rows, r, out);
      EXPECT_EQ(out, brute_range(rows, r)) << state_name(state);
      // A stale store scans every row; indices examine one slice.
      if (state == State::kStale) {
        EXPECT_EQ(scanned, rows.size());
      } else {
        EXPECT_LT(scanned, rows.size()) << state_name(state);
      }
    }
  }
}

TEST(LocalStoreConformance, RepeatedProbesAndRebuildsAreDeterministic) {
  Rng rng(12);
  EntryStore store = random_store(rng, 300, 3);
  const Region r = random_region(rng, 3, 0.4);
  auto ls = make_local_store(LocalStoreOptions{});
  ls->build(store);
  std::vector<std::uint32_t> range1, range2;
  ls->range(store, r, range1);
  ls->range(store, r, range2);
  EXPECT_EQ(range1, range2);
  // A second build from the same rows reproduces the same structure.
  ls->build(store);
  std::vector<std::uint32_t> range3;
  ls->range(store, r, range3);
  EXPECT_EQ(range1, range3);
  // A fresh instance agrees too.
  auto other = make_local_store(LocalStoreOptions{});
  other->build(store);
  std::vector<std::uint32_t> range4;
  other->range(store, r, range4);
  EXPECT_EQ(range1, range4);
}

TEST(LocalStoreConformance, EmptyAndTinyStores) {
  EntryStore empty;
  EntryStore one;
  one.push_back(7, 42, IndexPoint{0.5, 0.5});
  const Region all = unit_region(2);
  LocalStore ls;
  ls.build(empty);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ls.range(empty, all, out), 0u);
  EXPECT_TRUE(out.empty());

  // The one row arrives after the build: the stale probe scans it.
  ls.invalidate();
  EXPECT_EQ(ls.range(one, all, out), 1u);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});

  ls.build(one);
  out.clear();
  ls.range(one, all, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(LocalStoreConformance, MemoryBytesReflectsBuiltStructure) {
  Rng rng(13);
  EntryStore store = random_store(rng, 400, 5);
  LocalStore ls;
  EXPECT_EQ(ls.memory_bytes(), 0u);
  ls.build(store);
  EXPECT_GT(ls.memory_bytes(), 0u);
}

TEST(LocalStoreConformance, HitsAppendInAscendingEntryIndexInEveryState) {
  Rng rng(14);
  const EntryStore rows = random_store(rng, 400, 3);
  for (State state : kAllStates) {
    auto ls = store_in(state, rows);
    for (int t = 0; t < 10; ++t) {
      const Region r = random_region(rng, 3, 0.5);
      // `out` is appended to, never cleared: earlier contents survive
      // and only the new hits are ordered.
      std::vector<std::uint32_t> out{999999, 7};
      ls->range(rows, r, out);
      ASSERT_GE(out.size(), 2u);
      EXPECT_EQ(out[0], 999999u);
      EXPECT_EQ(out[1], 7u);
      EXPECT_TRUE(std::is_sorted(out.begin() + 2, out.end()))
          << state_name(state);
      EXPECT_EQ(std::vector<std::uint32_t>(out.begin() + 2, out.end()),
                brute_range(rows, r))
          << state_name(state);
    }
  }
}

// ---------------------------------------------------------------------
// The rebuild rule.

TEST(LocalStoreRebuildRule, FirstBuildIsEager) {
  Rng rng(15);
  const EntryStore rows = random_store(rng, 200, 3);
  LocalStore ls;
  ls.invalidate();  // nothing to invalidate yet: still never built
  std::vector<std::uint32_t> out;
  const std::size_t scanned =
      ls.range(rows, random_region(rng, 3, 0.2), out);
  EXPECT_EQ(ls.stats().rebuilds, 1u);
  EXPECT_EQ(ls.stats().rebuilt_entries, rows.size());
  EXPECT_LT(scanned, rows.size());
}

TEST(LocalStoreRebuildRule, FiresOnTheProbeWhoseChargeCoversTheSort) {
  Rng rng(16);
  EntryStore rows = random_store(rng, 100, 3);
  LocalStore ls;
  ls.build(rows);
  rows.push_back(1000, 1000, IndexPoint{0.5, 0.5, 0.5});
  ls.invalidate();
  // n = 101 rows, 3 dims, ceil(log2(102)) = 7: the rebuild costs
  // 101 * 3 * 7 = 2121. Each stale probe charges 101, so probes 1-21
  // scan and probe 22 — the first to find a charge of 2121 — rebuilds.
  const Region narrow = random_region(rng, 3, 0.1);
  for (int probe = 1; probe <= 21; ++probe) {
    std::vector<std::uint32_t> out;
    EXPECT_EQ(ls.range(rows, narrow, out), rows.size()) << "probe " << probe;
    EXPECT_EQ(out, brute_range(rows, narrow)) << "probe " << probe;
    EXPECT_EQ(ls.stats().rebuilds, 1u) << "probe " << probe;
  }
  std::vector<std::uint32_t> out;
  EXPECT_LT(ls.range(rows, narrow, out), rows.size());
  EXPECT_EQ(out, brute_range(rows, narrow));
  EXPECT_EQ(ls.stats().rebuilds, 2u);
  EXPECT_EQ(ls.stats().rebuilt_entries, 100u + 101u);
  // Fresh again: later probes neither scan everything nor rebuild.
  out.clear();
  EXPECT_LT(ls.range(rows, narrow, out), rows.size());
  EXPECT_EQ(ls.stats().rebuilds, 2u);
}

TEST(LocalStoreRebuildRule, AWriteRestartsTheCharge) {
  Rng rng(17);
  EntryStore rows = random_store(rng, 100, 3);
  LocalStore ls;
  ls.build(rows);
  rows.push_back(1000, 1000, IndexPoint{0.5, 0.5, 0.5});
  ls.invalidate();
  const Region narrow = random_region(rng, 3, 0.1);
  std::vector<std::uint32_t> out;
  for (int probe = 1; probe <= 20; ++probe) ls.range(rows, narrow, out);
  // 20 scans of 101 rows fell short of the 2121 rebuild; the next write
  // writes them off. With 102 rows the rebuild costs 102 * 3 * 7 = 2142,
  // so 21 more probes scan and the 22nd rebuilds.
  rows.push_back(1001, 1001, IndexPoint{0.4, 0.4, 0.4});
  ls.invalidate();
  for (int probe = 1; probe <= 21; ++probe) {
    EXPECT_EQ(ls.range(rows, narrow, out), rows.size()) << "probe " << probe;
  }
  EXPECT_EQ(ls.stats().rebuilds, 1u);
  EXPECT_LT(ls.range(rows, narrow, out), rows.size());
  EXPECT_EQ(ls.stats().rebuilds, 2u);
}

// ---------------------------------------------------------------------
// Exactness as a property over random mutation traces, including the
// extract_if migration path the platform uses, with probes between
// mutations so the store moves through all three states.

TEST(LocalStoreProperty, ExactUnderRandomMutationTraces) {
  Rng rng(21);
  EntryStore store;
  EntryStore migrated;  // extract_if destination (the "new owner")
  LocalStore ls;
  std::uint64_t next_object = 0;
  std::uint64_t stale_probes = 0;
  for (int step = 0; step < 40; ++step) {
    // A burst of mutations, shaped like platform traffic: mostly
    // inserts, occasional deletes, periodic key-predicate migrations.
    const int burst = 1 + static_cast<int>(rng.below(30));
    for (int b = 0; b < burst; ++b) {
      const double op = rng.uniform();
      if (op < 0.70 || store.empty()) {
        IndexPoint pt{rng.uniform(), rng.uniform(), rng.uniform()};
        store.push_back(static_cast<Id>(rng.next()), next_object++, pt);
      } else if (op < 0.85) {
        store.erase_at(rng.below(store.size()));
      } else {
        const std::size_t i = rng.below(store.size());
        EXPECT_TRUE(store.erase_first(store.object(i), store.key(i)));
      }
    }
    if (step % 7 == 3 && !store.empty()) {
      // Migration: peel off a key range, exactly like ownership
      // transfer, and occasionally merge it back.
      const Id split = static_cast<Id>(rng.next());
      store.extract_if([split](Id k) { return k < split; }, migrated);
      if (rng.uniform() < 0.5) store.append_moved(migrated);
    }
    ls.invalidate();
    const int probes = 1 + static_cast<int>(rng.below(40));
    for (int q = 0; q < probes; ++q) {
      const Region r = random_region(rng, 3, 0.25 + 0.5 * rng.uniform());
      std::vector<std::uint32_t> got;
      const std::size_t scanned = ls.range(store, r, got);
      stale_probes += (scanned == store.size() && store.size() > 30);
      EXPECT_EQ(got, brute_range(store, r)) << "step " << step;
    }
  }
  // The trace really exercised both the stale scans and deferred
  // rebuilds, not just the eager first build.
  EXPECT_GT(stale_probes, 0u);
  EXPECT_GT(ls.stats().rebuilds, 1u);
}

TEST(LocalStoreProperty, PrunesAgainstFullScan) {
  Rng rng(22);
  // Clustered data and a selective box: a fresh store examines only the
  // most selective dimension's slice.
  EntryStore store;
  for (std::size_t i = 0; i < 2000; ++i) {
    const double cx = static_cast<double>(i % 4) * 0.25 + 0.1;
    IndexPoint pt{cx + 0.02 * rng.uniform(), cx + 0.02 * rng.uniform()};
    store.push_back(static_cast<Id>(rng.next()), i, pt);
  }
  LocalStore ls;
  ls.build(store);
  std::vector<std::uint32_t> out;
  const std::size_t scanned = ls.range(
      store, Region{{Interval{0.1, 0.13}, Interval{0.1, 0.13}}}, out);
  EXPECT_LT(scanned, store.size() / 2);
  EXPECT_FALSE(out.empty());
}

// ---------------------------------------------------------------------
// Platform accounting: only builds actually performed count.

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 12 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  /// Entries examined by one query (default: the whole space).
  std::uint64_t query(std::uint32_t scheme,
                      const Region& region = unit_region(2)) {
    std::uint64_t scanned = 0;
    platform->region_query(
        *ring->alive_nodes()[0], scheme, region, IndexPoint(2, 0.5),
        ReplyMode::kAllMatches,
        [&scanned](const IndexPlatform::QueryOutcome& o) {
          scanned = o.scanned;
        });
    sim.run();
    return scanned;
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

std::uint32_t load_scheme(Stack& s, int entries) {
  auto scheme = s.platform->register_scheme(
      "acct", uniform_boundary(2, 0, 1), false);
  Rng rng(6);
  for (int i = 0; i < entries; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  return scheme;
}

TEST(LocalStorePlatform, RebuildsLazilyOncePerMutatedStore) {
  Stack s(8, 5);
  const std::uint32_t scheme = load_scheme(s, 64);
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, 0u);  // lazy
  const std::uint64_t fresh_scan = s.query(scheme);
  const auto after_first = s.platform->local_store_stats();
  EXPECT_GT(after_first.rebuilds, 0u);
  EXPECT_EQ(after_first.rebuilt_entries, 64u);
  // Probing again without mutations must not rebuild anything.
  EXPECT_EQ(s.query(scheme), fresh_scan);
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, after_first.rebuilds);

  // One more insert dirties exactly the owner's store. Its probes scan
  // every row and count no build until they have paid for one; then
  // exactly one rebuild of exactly that store is counted. A whole-space
  // query probes each store many times over, so these probe only near
  // the new point.
  std::vector<std::size_t> sizes;
  for (ChordNode* n : s.ring->alive_nodes()) {
    sizes.push_back(s.platform->store(*n, scheme).size());
  }
  s.platform->insert(scheme, 1000, IndexPoint{0.5, 0.5});
  std::size_t owner_size = 0;
  const auto nodes = s.ring->alive_nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::size_t now = s.platform->store(*nodes[i], scheme).size();
    if (now != sizes[i]) owner_size = now;
  }
  ASSERT_GT(owner_size, 0u);
  const Region near{{Interval{0.49, 0.51}, Interval{0.49, 0.51}}};
  s.query(scheme, near);
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, after_first.rebuilds);
  int queries = 1;
  while (s.platform->local_store_stats().rebuilds == after_first.rebuilds) {
    ASSERT_LT(queries, 1000);
    s.query(scheme, near);
    ++queries;
  }
  EXPECT_GT(queries, 1);  // the rebuild was deferred
  const auto after_rebuild = s.platform->local_store_stats();
  EXPECT_EQ(after_rebuild.rebuilds, after_first.rebuilds + 1);
  EXPECT_EQ(after_rebuild.rebuilt_entries,
            after_first.rebuilt_entries + owner_size);
  EXPECT_GT(s.platform->store_bytes(), 0u);
}

TEST(LocalStorePlatform, RemovingAnAbsentObjectKeepsStoresFresh) {
  Stack s(8, 7);
  const std::uint32_t scheme = load_scheme(s, 64);
  const std::uint64_t fresh_scan = s.query(scheme);
  const std::uint64_t rebuilds = s.platform->local_store_stats().rebuilds;
  // Nothing is erased on either removal path, so no store goes stale.
  // A stale store here would rebuild within 8 whole-space queries (about
  // 8 rows, 2 dims, ceil(log2(9)) = 4); none may rebuild in 40.
  EXPECT_FALSE(s.platform->remove(scheme, 5000, IndexPoint{0.3, 0.7}));
  bool removed = true;
  s.platform->remove_via_network(*s.ring->alive_nodes()[1], scheme, 5001,
                                 IndexPoint{0.6, 0.2},
                                 [&removed](bool r, int) { removed = r; });
  s.sim.run();
  EXPECT_FALSE(removed);
  for (int q = 0; q < 40; ++q) {
    EXPECT_EQ(s.query(scheme), fresh_scan) << "query " << q;
  }
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, rebuilds);
}

}  // namespace
}  // namespace lmk
