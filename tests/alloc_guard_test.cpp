// Tests for the allocation-discipline instrumentation
// (common/alloc_guard.hpp). The counters only move when the build
// interposes operator new/delete (-DLMK_ALLOC_GUARD=ON), so counter
// assertions are gated on the macro and the plain build instead
// asserts they stay zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "balance/rotation.hpp"
#include "chord/ring.hpp"
#include "common/alloc_guard.hpp"
#include "common/rng.hpp"
#include "landmark/mapper.hpp"
#include "net/latency_model.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

namespace lmk {
namespace {

#ifdef LMK_ALLOC_GUARD

TEST(AllocGuard, ReportsEnabled) { EXPECT_TRUE(alloc_guard_enabled()); }

TEST(AllocGuard, CountsNewAndDelete) {
  AllocPhaseScope phase("count-test");
  AllocCounters before = phase.delta();
  constexpr std::size_t kBytes = 1 << 12;
  {
    auto block = std::make_unique<char[]>(kBytes);
    // Defeat any clever elision: the pointer must be materialized.
    ASSERT_NE(block.get(), nullptr);
    AllocCounters mid = phase.delta();
    EXPECT_GE(mid.allocs, before.allocs + 1);
    EXPECT_GE(mid.alloc_bytes, before.alloc_bytes + kBytes);
  }
  AllocCounters after = phase.delta();
  EXPECT_GE(after.frees, before.frees + 1);
  EXPECT_GE(after.free_bytes, before.free_bytes + kBytes);
}

TEST(AllocGuard, DeltaIsZeroOverAllocationFreeRegion) {
  // What EngineSteadyStateDispatchAllocatesNothing relies on: code
  // that does not touch the allocator reports an exactly-zero delta,
  // no noise floor.
  AllocPhaseScope phase("quiet");
  volatile int sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  AllocCounters d = phase.delta();
  EXPECT_EQ(d.allocs, 0u);
  EXPECT_EQ(d.frees, 0u);
  EXPECT_EQ(d.alloc_bytes, 0u);
  EXPECT_EQ(d.free_bytes, 0u);
}

TEST(AllocGuard, CountersArePerThread) {
  AllocPhaseScope phase("main");
  AllocCounters before = phase.delta();
  AllocCounters worker_delta;
  std::thread worker([&] {
    AllocPhaseScope wphase("worker");
    std::vector<std::unique_ptr<int>> owned;
    for (int i = 0; i < 64; ++i) owned.push_back(std::make_unique<int>(i));
    worker_delta = wphase.delta();
  });
  worker.join();
  // The worker saw its own traffic...
  EXPECT_GE(worker_delta.allocs, 64u);
  // ...and none of it landed on this thread's counters (std::thread
  // construction itself may allocate *here*, so measure a quiet span
  // after the join instead of asserting an exact zero across it).
  AllocCounters quiet_before = phase.delta();
  AllocCounters quiet_after = phase.delta();
  EXPECT_EQ(quiet_after.allocs - quiet_before.allocs, 0u);
  EXPECT_GE(phase.delta().allocs, before.allocs);
}

/// Pure event-engine load: `chains` self-rescheduling events hammer
/// push/pop/dispatch with mixed delays (heavy same-timestamp ties) and
/// actor tags until `budget` events have fired. No protocol work, so
/// any allocation it makes belongs to the queue and closure machinery.
struct DispatchStorm {
  Simulator sim;
  std::uint64_t remaining;

  DispatchStorm(std::uint64_t budget, std::size_t chains)
      : remaining(budget) {
    for (std::size_t c = 0; c < chains; ++c) {
      arm(static_cast<SimTime>(c % 7), 0x9e3779b97f4a7c15ull + c);
    }
  }
  // Queued closures hold `this`.
  DispatchStorm(const DispatchStorm&) = delete;
  DispatchStorm& operator=(const DispatchStorm&) = delete;

  void arm(SimTime delay, std::uint64_t salt) {
    // 56-byte capture (this, salt, 5-word payload), sized like the tree
    // router's batched delivery closure. The payload feeds back into
    // the salt so the optimizer cannot shed it.
    std::uint64_t payload[5] = {salt ^ 0xa076'1d64'78bd'642full,
                                salt * 0xe703'7ed1'a0b4'28dbull,
                                salt + 0x8ebc'6af0'9c88'c6e3ull,
                                salt ^ (salt >> 33), ~salt};
    sim.schedule_after(
        delay, [this, salt, payload] { fire(salt ^ payload[salt & 3]); },
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
};

TEST(AllocGuard, EngineSteadyStateDispatchAllocatesNothing) {
  // The zero steady-state allocation contract of the event engine
  // (DESIGN.md "Allocation discipline"): once the slot pool, its free
  // list and the key heap have reached their high-water capacity,
  // dispatching routine closures never touches the allocator.
  constexpr std::uint64_t kEvents = 1000000;
  DispatchStorm storm(kEvents, /*chains=*/4096);
  storm.sim.run(kEvents / 4);  // warmup: the pools grow here
  AllocPhaseScope phase("engine-steady-state");
  storm.sim.run();
  AllocCounters steady = phase.delta();
  EXPECT_EQ(steady.allocs, 0u);
  EXPECT_EQ(steady.frees, 0u);
  EXPECT_EQ(storm.remaining, 0u);
}

TEST(AllocGuard, TreeRoutingAllocatesOneBlockPerSplitAndPerMessage) {
  // The routing contract (DESIGN.md "Allocation discipline"): a split
  // allocates the upper child's region, a message allocates the parcel
  // batch its delivery owns, and nothing else on the tree-routing path
  // allocates once its buffers and the engine have warmed up.
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kDims = 10;
  constexpr std::size_t kQueries = 200;
  Simulator sim;
  ConstantLatencyModel topo(kNodes, 15 * kMillisecond);
  Network net(sim, topo);
  Ring::Options ropts;
  ropts.seed = 5;
  Ring ring(net, ropts);
  for (HostId h = 0; h < kNodes; ++h) ring.create_node(h);
  ring.bootstrap();
  SchemeRouting scheme;
  scheme.boundary = uniform_boundary(kDims, 0, 1);
  scheme.rotation = rotation_offset("alloc-guard-routing");
  scheme.query_message_bytes = query_message_size(kDims);

  std::uint64_t splits = 0;
  std::uint64_t messages = 0;
  std::int64_t outstanding = 0;
  QueryRouter router(
      ring,
      [&](std::span<const RangeQuery> solved, ChordNode&) {
        outstanding -= static_cast<std::int64_t>(solved.size());
      },
      [&](std::uint64_t, int delta) {
        outstanding += delta;
        if (delta > 0) splits += static_cast<std::uint64_t>(delta);
      },
      [&](std::uint64_t, std::uint64_t) { ++messages; });

  // Fixed regions and origins, so both passes route the same work.
  Rng rng(23);
  std::vector<Region> regions(kQueries);
  std::vector<ChordNode*> origins(kQueries);
  const std::vector<ChordNode*> nodes = ring.alive_nodes();
  for (std::size_t i = 0; i < kQueries; ++i) {
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 0.6);
      regions[i].ranges.push_back(Interval{lo, lo + rng.uniform(0.0, 0.4)});
    }
    origins[i] = nodes[rng.below(nodes.size())];
  }
  auto build = [&] {
    std::vector<RangeQuery> queries(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      make_query(scheme, i + 1, origins[i]->host(), regions[i],
                 IndexPoint(kDims, 0.5), &queries[i]);
    }
    return queries;
  };
  auto route_all = [&](std::vector<RangeQuery>& queries) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      outstanding += 1;
      router.start(*origins[i], std::move(queries[i]));
      sim.run();
    }
  };

  // Warm-up pass: the outbox, the solve list and the engine's pools
  // reach their high-water capacity here.
  std::vector<RangeQuery> warm = build();
  route_all(warm);
  ASSERT_EQ(outstanding, 0);

  std::vector<RangeQuery> queries = build();
  splits = messages = 0;
  AllocPhaseScope phase("tree-routing");
  route_all(queries);
  const AllocCounters d = phase.delta();
  ASSERT_EQ(outstanding, 0);
  ASSERT_GT(splits, kQueries);  // the workload really fans out
  EXPECT_EQ(d.allocs, splits + messages)
      << splits << " splits, " << messages << " messages";
}

#else  // !LMK_ALLOC_GUARD

TEST(AllocGuard, DisabledBuildKeepsCountersAtZero) {
  EXPECT_FALSE(alloc_guard_enabled());
  AllocPhaseScope phase("noop");
  auto p = std::make_unique<int>(7);
  ASSERT_NE(p.get(), nullptr);
  AllocCounters d = phase.delta();
  EXPECT_EQ(d.allocs, 0u);
  EXPECT_EQ(d.frees, 0u);
  EXPECT_EQ(d.alloc_bytes, 0u);
}

#endif  // LMK_ALLOC_GUARD

}  // namespace
}  // namespace lmk
