// Dynamic allocation-discipline instrumentation (LMK_ALLOC_GUARD).
//
// The flagship memory architecture (reused buffers, recycle pools, SoA
// stores — see DESIGN.md "Allocation discipline") only pays off while
// the engine steady state stays off the allocator. The static lmk-lint
// rules catch allocation *sites*; this guard catches allocation
// *behavior*: when the build is configured with -DLMK_ALLOC_GUARD=ON,
// the global operator new/delete family is replaced with a counting
// interposer, and code brackets its measured regions with
// AllocPhaseScope:
//
//   AllocPhaseScope phase("engine-steady-state");
//   ... hot loop ...
//   AllocCounters d = phase.delta();   // allocs/frees/bytes since open
//
// Counters are per-thread (plain thread_local loads/stores, no atomics,
// no contention), so a scope measures exactly the work its own thread
// did. tests/alloc_guard_test.cpp's
// AllocGuard.EngineSteadyStateDispatchAllocatesNothing runs an event
// storm in the alloc-guard build and requires zero steady-state
// allocations; AllocGuard.TreeRoutingAllocatesOneBlockPerSplitAndPerMessage
// requires tree routing to allocate exactly one block per split and one
// per query message.
//
// Without the CMake option everything here compiles to no-ops:
// alloc_guard_enabled() is false and counters stay zero.
#pragma once

#include <cstdint>

namespace lmk {

/// Per-thread allocation counter snapshot.
struct AllocCounters {
  std::uint64_t allocs = 0;       ///< operator new calls
  std::uint64_t frees = 0;        ///< operator delete calls
  std::uint64_t alloc_bytes = 0;  ///< usable bytes handed out
  std::uint64_t free_bytes = 0;   ///< usable bytes returned

  AllocCounters operator-(const AllocCounters& o) const {
    return {allocs - o.allocs, frees - o.frees, alloc_bytes - o.alloc_bytes,
            free_bytes - o.free_bytes};
  }
};

/// True when the build interposes operator new/delete
/// (-DLMK_ALLOC_GUARD=ON).
[[nodiscard]] bool alloc_guard_enabled();

/// This thread's counters since thread start (all-zero without the
/// guard).
[[nodiscard]] AllocCounters alloc_counters();

/// RAII measured region. `name` must outlive the scope (string
/// literals in practice). Scopes nest; delta() reports this thread's
/// counter movement since the scope opened.
class AllocPhaseScope {
 public:
  explicit AllocPhaseScope(const char* name)
      : name_(name), at_open_(alloc_counters()) {}

  AllocPhaseScope(const AllocPhaseScope&) = delete;
  AllocPhaseScope& operator=(const AllocPhaseScope&) = delete;

  [[nodiscard]] const char* name() const { return name_; }

  /// Counters accumulated on this thread since the scope opened.
  [[nodiscard]] AllocCounters delta() const {
    return alloc_counters() - at_open_;
  }

 private:
  const char* name_;
  AllocCounters at_open_;
};

}  // namespace lmk
