// Tests for the allocation-discipline instrumentation
// (common/alloc_guard.hpp). The counters only move when the build
// interposes operator new/delete (-DLMK_ALLOC_GUARD=ON), so counter
// assertions are gated on the macro and the plain build instead
// asserts they stay zero.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_guard.hpp"

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
  // The property the bench gate enforces: code that does not touch
  // the allocator reports an exactly-zero delta, no noise floor.
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
