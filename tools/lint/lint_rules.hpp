// lmk-lint: repo-specific determinism lint for the simulator core.
//
// The reproduction's experimental claims rest on bit-identical,
// seed-reproducible simulation runs (DESIGN.md "Correctness tooling").
// This lint statically enforces the repo rules that protect that
// property:
//
//   banned-source        No environment-seeded randomness
//                        (std::random_device, std::rand, time(), ...)
//                        outside src/common/rng and the bench harness.
//                        All randomness must flow from a seeded
//                        lmk::Rng.
//
//   wall-clock           No wall-clock reads (system_clock,
//                        steady_clock, high_resolution_clock,
//                        clock_gettime, gettimeofday, timespec_get) in
//                        src/: simulated code must use the virtual
//                        clock (Simulator::now()). The bench harness is
//                        exempt (throughput timing).
//
//   banned-abort         No direct std::abort / std::exit / _Exit /
//                        quick_exit call sites outside
//                        src/common/check.hpp: process termination must
//                        route through LMK_CHECK / LMK_CHECK_MSG so
//                        every fatal path prints expr/file/line
//                        diagnostics.
//
//   unordered-iteration  No iteration over std::unordered_map /
//                        std::unordered_set: iteration order is
//                        implementation-defined, so anything it feeds —
//                        an RNG draw, an accumulation, an ordered
//                        output — silently depends on it. Flagged sites
//                        must switch to a sorted/ordered container or
//                        carry an explicit justification comment
//                        `// lmk-lint: iteration-order-independent` on
//                        the same or the preceding line.
//
//   pointer-key          No pointer-keyed std::map / std::set: the
//                        ordering is the allocation order of the
//                        pointees, which varies run to run (ASLR, heap
//                        layout). Key by a stable identifier instead.
//
//   pointer-key-unordered  Pointer-keyed std::unordered_map /
//                        std::unordered_set: hash lookups are
//                        deterministic, but any iteration leaks
//                        allocation order. Every declaration must carry
//                        `// lmk-lint: allow(pointer-key-unordered)`
//                        plus a reason asserting the container is
//                        lookup-only (or every walk over it is
//                        order-independent).
//
//   mutable-global       Mutable state with static storage duration:
//                        `static` / `thread_local` variable
//                        declarations (any scope) and keywordless
//                        namespace-scope variable definitions. Sweep
//                        cells run concurrently on the thread pool, so
//                        hidden globals either race or make one cell's
//                        result depend on which cells ran before it.
//                        Every site must be const/constexpr or carry
//                        `// lmk-lint: allow(mutable-global) <reason>`
//                        asserting why the state is benign (per-thread,
//                        pool plumbing guarded by a mutex, ...).
//
// Allocation-discipline rules. The flagship perf contract (DESIGN.md
// "Allocation discipline") is that the simulation engine's steady state
// allocates nothing: reused buffers and recycle pools absorb all churn.
// These rules police the code paths that contract depends on. They
// apply only inside *hot-path regions*: whole files placed on the
// driver's curated list (FileOptions.hot_path — the event engine,
// EventClosure, the simulator loop), or regions delimited in any file
// by a `// lmk-hot-path` comment and closed by `// lmk-hot-path-end`
// (arena-escape applies file-wide; see below).
//
//   hot-alloc            Owning heap allocation on a hot path: `new`
//                        (placement new is exempt), make_unique /
//                        make_shared, std::string construction, and
//                        growth calls (push_back / emplace_back /
//                        emplace) on a receiver with no `.reserve(`
//                        call anywhere in the file or its companion
//                        header. Preallocate, use a recycle pool, or justify
//                        with `// lmk-lint: allow(hot-alloc) <reason>`
//                        (capacity-warmup growth that amortizes to zero
//                        is the expected justification).
//
//   hot-std-function     std::function constructed on a hot path:
//                        type-erasure through an owning, possibly
//                        heap-backed closure per assignment. Reference
//                        parameters (`const std::function<...>&`) are
//                        exempt — they do not construct. Use
//                        EventClosure / a template parameter, or
//                        justify with
//                        `// lmk-lint: allow(hot-std-function)`.
//
// Handler-discipline rules (the schedule-exploration gate's static
// half, DESIGN.md "Schedule exploration & fault injection"). The
// lmk-sched explorer can only perturb what flows through
// Network::send; code that runs *inside a message delivery* must
// therefore behave like a real peer — no god's-eye reads of other
// nodes, no shared RNG streams, no direct simulator scheduling. These
// rules apply inside *handler regions*: whole files on the driver's
// curated list (FileOptions.handler_file — the query routers and the
// load balancer), or regions delimited in any file by a
// `// lmk-handler` comment and closed by `// lmk-handler-end` (the
// Chord protocol section of src/chord/ring.cpp).
//
//   cross-node-touch     A handler calls a ring-oracle entry point
//                        (oracle_successor / oracle_predecessor /
//                        alive_nodes / alive_count / bootstrap /
//                        fix_neighbors / fix_fingers /
//                        refresh_all_fingers): global state a real
//                        node cannot see. Route the information
//                        through messages (Network::send / Ring::rpc),
//                        or justify with
//                        `// lmk-lint: allow(cross-node-touch)` — the
//                        expected justification is an explicitly
//                        modeled out-of-band control plane.
//
//   unforked-rng         A handler draws (next / below / uniform /
//                        normal / exponential / shuffle /
//                        sample_indices) from a shared member Rng
//                        (receiver spelled `*rng*_`): the stream's
//                        draw order then depends on message delivery
//                        order across nodes, so one reordered message
//                        decorrelates every later draw. fork() a
//                        node-local stream at setup time and draw from
//                        that (fork() itself is exempt), or justify
//                        with `// lmk-lint: allow(unforked-rng)`.
//
//   raw-schedule         A handler schedules directly on the
//                        simulator (schedule_after / schedule_at):
//                        the event bypasses Network::send, so no
//                        latency model applies and the lmk-sched
//                        fault injector can never drop, delay or
//                        reorder it. Inter-node effects must be
//                        messages; node-local timers need a
//                        justification:
//                        `// lmk-lint: allow(raw-schedule) <reason>`.
//
//   arena-escape         An EntryView stored beyond the statement
//                        that created it (file-wide, not only hot
//                        regions): in a member (`EntryView foo_;`) or
//                        a container element (`vector<EntryView>`).
//                        Any EntryStore mutation invalidates the
//                        view's point span, so a stored view is a
//                        stale read waiting to happen. Copy out, or
//                        justify with
//                        `// lmk-lint: allow(arena-escape) <reason>`.
//
// Any rule can be suppressed for one line with
// `// lmk-lint: allow(<rule>) <reason>` — reserved for sites reviewed
// to be safe; prefer fixing.
//
// The analysis is a file-local, comment/string-aware token scan — not a
// full parser. Each file is scanned once into a token-position index
// shared by every rule family (see ScanIndex in lint_rules.cpp); rules
// then walk only their own tokens' positions. Known limits (documented,
// acceptable for a lint that gates CI): type aliases of unordered
// containers are not traced, and a range expression must be a plain
// variable (or `var.begin()`) declared in the same file to be
// recognized.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lmk::lint {

/// One lint violation.
struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Per-file exemptions and context, derived from the path by the driver.
struct FileOptions {
  /// Part of src/common/rng: the one module allowed to name raw entropy
  /// sources (it wraps them behind the seeded Rng).
  bool rng_module = false;
  /// Bench harness: allowed to read wall clocks for throughput timing.
  bool bench = false;
  /// src/common/check.hpp: the one module allowed to terminate the
  /// process (LMK_CHECK's [[noreturn]] failure paths call std::abort).
  bool check_module = false;
  /// Whole file is a hot-path region (driver's curated list: the event
  /// engine, EventClosure, the simulator loop). The allocation rules
  /// apply everywhere in it, no markers needed.
  bool hot_path = false;
  /// Whole file is a message-handler region (driver's curated list:
  /// the query routers, the load balancer). The handler-discipline
  /// rules apply everywhere in it, no markers needed.
  bool handler_file = false;
  /// tools/lint itself: its sources quote the marker strings and
  /// banned tokens they scan for, so region collection and the
  /// wall-clock rule (the --stats harness times itself) are disabled.
  /// Every token-level rule still applies.
  bool lint_module = false;
  /// Companion-header text (X.hpp next to X.cpp): member variables are
  /// declared there, so its unordered-container declarations are folded
  /// into the iteration analysis of the .cpp, and its reserve() calls
  /// into the hot-alloc growth analysis.
  std::string_view companion_decls;
};

/// Cumulative per-rule wall time over lint_source calls (--stats).
struct LintStats {
  /// (rule name, seconds), in first-seen order; "scan-index" is the
  /// shared single-pass tokenization every rule family reads from.
  std::vector<std::pair<std::string, double>> rule_seconds;

  void add(std::string_view rule, double seconds);
};

/// Replace comments, string literals and char literals with spaces
/// (newlines preserved, so offsets and line numbers survive). Exposed
/// for tests.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view src);

/// Names of variables declared in `src` with an unordered container
/// type. Exposed for tests.
[[nodiscard]] std::vector<std::string> collect_unordered_vars(
    std::string_view stripped);

/// Lint one translation unit / header. `path` is used only for
/// reporting; `content` is the file text. When `stats` is non-null,
/// per-rule wall time is accumulated into it.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view content,
                                               const FileOptions& opts = {},
                                               LintStats* stats = nullptr);

}  // namespace lmk::lint
