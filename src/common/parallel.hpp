// Deterministic chunked parallelism for the offline (non-simulated) hot
// phases: ground-truth oracle computation, landmark selection, bulk
// index-space mapping — and, via parallel_tasks, whole experiment cells
// (src/eval/sweep.hpp).
//
// Design contract (see DESIGN.md, "Parallel offline phases & determinism
// contract"):
//  * Work over [0, n) is split into chunks whose boundaries depend ONLY
//    on n and the explicit grain — never on the thread count. Workers
//    race for whole chunks, so which thread runs a chunk is
//    nondeterministic, but chunk contents are not.
//  * Callers either write results into disjoint per-index slots
//    (parallel_for) or reduce per-chunk partials that the caller then
//    combines in chunk order (parallel_chunks + sequential merge).
//    Under that discipline results are bit-identical for any thread
//    count, including 1.
//  * parallel_tasks submits coarse independent tasks (one simulator
//    stack each) to the same pool, at most one per pool thread in
//    flight. A parallel_for/parallel_chunks issued from inside a task
//    runs inline with unchanged chunk boundaries — no pool re-entry,
//    no deadlock, and per-task results identical to a serial run.
//  * Each discrete-event simulator instance is single-threaded; a task
//    owns its simulator exclusively, so simulators never migrate
//    between concurrently running tasks.
//
// Thread count resolution: explicit set_threads(n) override, else the
// LMK_THREADS environment variable, else std::thread::hardware_concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace lmk {

/// Number of worker threads parallel_for/parallel_chunks will use
/// (>= 1; includes the calling thread, which always participates).
[[nodiscard]] std::size_t thread_count();

/// Override the thread count for subsequent parallel_for calls
/// (0 restores the LMK_THREADS / hardware default). Not safe to call
/// concurrently with a running parallel_for; intended for tests and
/// benchmark harnesses that compare thread counts in one process.
void set_threads(std::size_t n);

/// Run `n` independent coarse tasks fn(i) on the pool, at most one per
/// pool thread at once. Tasks are claimed in index order, so on a
/// single-threaded pool execution degrades to the plain serial loop.
/// Nested parallel_for/parallel_chunks calls issued from inside a task
/// run inline with unchanged chunk boundaries, so each task's results
/// are bit-identical to a serial run regardless of the thread count.
/// Blocks until every task finished; rethrows the first exception
/// (remaining tasks still run).
void parallel_tasks(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

namespace detail {
/// Runs fn(begin, end) over deterministic chunks covering [0, n),
/// distributing chunks across the pool; blocks until every chunk
/// completed. Rethrows the first exception thrown by fn (every other
/// chunk still runs or is abandoned; the pool stays usable).
void run_chunks(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& fn);

/// Deterministic default grain: targets a fixed maximum chunk count so
/// chunk boundaries are a pure function of n.
[[nodiscard]] std::size_t default_grain(std::size_t n);
}  // namespace detail

/// Apply fn(i) for every i in [0, n). fn must only write state owned by
/// index i (or be pure); under that rule the result is deterministic for
/// any thread count. `grain` bounds the chunk size (0 = automatic,
/// derived from n only).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  if (grain == 0) grain = detail::default_grain(n);
  detail::run_chunks(n, grain, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Apply fn(begin, end) over deterministic chunks covering [0, n).
/// Chunk boundaries depend only on n and grain, so per-chunk partial
/// results (e.g. sums) merged by the caller in chunk order reproduce
/// bit-identically for any thread count.
template <typename Fn>
void parallel_chunks(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  if (grain == 0) grain = detail::default_grain(n);
  detail::run_chunks(n, grain, [&fn](std::size_t begin, std::size_t end) {
    fn(begin, end);
  });
}

}  // namespace lmk
