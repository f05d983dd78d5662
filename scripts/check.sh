#!/usr/bin/env bash
# Correctness gate for the simulator core (see DESIGN.md "Correctness
# tooling").
#
# Usage:
#   scripts/check.sh                    # one build + ctest (RelWithDebInfo)
#   LMK_SANITIZE=address scripts/check.sh
#   LMK_SANITIZE=undefined scripts/check.sh
#   LMK_SANITIZE=thread scripts/check.sh
#   scripts/check.sh --audit            # build + ctest with LMK_AUDIT=1:
#                                       # every experiment run gets the
#                                       # invariant auditor attached
#                                       # (src/audit/, fail-fast)
#   scripts/check.sh --all              # the full gate:
#                                       #   1. lmk-lint over src/ tools/ tests/
#                                       #   2. clang-tidy (scripts/tidy.sh)
#                                       #   3. plain build (-Werror) + ctest
#                                       #   4. audit leg (LMK_AUDIT=1 ctest)
#                                       #   5. ASan, UBSan, TSan builds + ctest
#                                       #   6. alloc-guard leg (below)
#                                       #   7. sched smoke (below)
#                                       #   8. serve smoke (below)
#   scripts/check.sh --alloc-guard [--warn-only]
#                                       # allocation-discipline leg: build
#                                       # with -DLMK_ALLOC_GUARD=ON and
#                                       # -DLMK_ARENA_GUARD=ON (operator
#                                       # new/delete interposed, arena
#                                       # lifetime sanitizer armed), ctest,
#                                       # then a toy-scale bench_perf whose
#                                       # per-phase allocation JSON feeds
#                                       # bench_diff.py's zero-steady-state-
#                                       # allocation gate (a HARD gate: it
#                                       # fails even under --warn-only)
#   scripts/check.sh --bench-smoke [--warn-only]
#                                       # toy-scale online bench_perf run +
#                                       # bench_diff.py events/sec regression
#                                       # check against the committed
#                                       # bench/BENCH_perf.baseline.json
#                                       # (--warn-only: report, never fail —
#                                       # what CI uses on shared runners)
#   scripts/check.sh --flagship-smoke [--warn-only]
#                                       # reduced-scale bench_flagship run
#                                       # (256 nodes / 20k objects), twice:
#                                       # LMK_THREADS=1 and =8, byte-compares
#                                       # the deterministic JSON sections
#                                       # (that cmp fails hard even under
#                                       # --warn-only), then bench_diff.py
#                                       # --flagship-only gates p99 latency,
#                                       # arena high-water, and bytes on the
#                                       # wire against the committed
#                                       # bench/BENCH_flagship.baseline.json
#   scripts/check.sh --serve-smoke [--warn-only]
#                                       # serving-layer gate: bench_flagship
#                                       # with LMK_FLAGSHIP_SERVE=1 and
#                                       # LMK_SERVE_VERIFY=1 (every cache hit
#                                       # oracle-checked in-line) at
#                                       # LMK_THREADS=1 and =8, byte-compares
#                                       # the deterministic sections (serve
#                                       # sweep included; fails hard even
#                                       # under --warn-only), then
#                                       # bench_diff.py --flagship-only runs
#                                       # the serve gates: digest match, hit-
#                                       # rate floor, wire-ratio ceiling, and
#                                       # the 4x-overload p99 win
#   scripts/check.sh --sched-smoke      # schedule & fault exploration gate:
#                                       # a small lmk-sched seed swarm must
#                                       # pass on the clean tree, then a
#                                       # -DLMK_SCHED_MUTATION=ON build must
#                                       # be caught by the same swarm, ddmin-
#                                       # shrunk to <= 5 directives, and the
#                                       # minimized .sched must replay to the
#                                       # same auditor failure
#
# Every build is -Werror for src/ and tools/ (LMK_WERROR=ON). Each
# sanitizer gets its own build directory (build-check-<san>) so
# instrumented and plain builds never mix objects.
set -euo pipefail

cd "$(dirname "$0")/.."

# Exercise the thread pool with a wide pool even on small CI machines.
export LMK_THREADS="${LMK_THREADS:-8}"

run_leg() {
  local san="$1"
  local build_dir cmake_args
  if [ -n "$san" ]; then
    build_dir="build-check-${san}"
    cmake_args=(-DLMK_SANITIZE="${san}")
  else
    build_dir="build-check"
    cmake_args=()
  fi
  echo "== check.sh: leg '${san:-plain}' (${build_dir}) =="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON "${cmake_args[@]}"
  cmake --build "$build_dir" -j"$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)"
}

run_lint() {
  echo "== check.sh: lmk-lint =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target lmk-lint >/dev/null
  ./build-check/tools/lint/lmk-lint src tools tests
}

run_sched_smoke() {
  echo "== check.sh: sched smoke (schedule & fault exploration gate) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target lmk-sched >/dev/null
  # Clean tree: every plan in the seed swarm must either keep the
  # invariants or recover by quiescence.
  LMK_SCHED_PLANS=6 ./build-check/tools/sched/lmk-sched explore \
    --out build-check/minimized.sched
  # Mutation tree: -DLMK_SCHED_MUTATION=ON plants a replication-repair
  # bug (src/core/index_platform.cpp). The same swarm must catch it,
  # ddmin must shrink the plan to <= 5 directives, and the minimized
  # reproducer must replay to the same auditor failure.
  cmake -B build-check-schedmutation -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON -DLMK_SCHED_MUTATION=ON >/dev/null
  cmake --build build-check-schedmutation -j"$(nproc)" --target lmk-sched \
    >/dev/null
  local sched=build-check-schedmutation/minimized.sched
  if LMK_SCHED_PLANS=6 ./build-check-schedmutation/tools/sched/lmk-sched \
      explore --out "$sched"; then
    echo "sched smoke: FAIL — planted mutation survived the seed swarm" >&2
    return 1
  fi
  if [ ! -f "$sched" ]; then
    echo "sched smoke: FAIL — no minimized reproducer written" >&2
    return 1
  fi
  local directives
  directives=$(grep -cvE '^(tie |#|$)' "$sched" || true)
  if [ "$directives" -gt 5 ]; then
    echo "sched smoke: FAIL — minimized plan has $directives directives" \
         "(want <= 5)" >&2
    return 1
  fi
  if ./build-check-schedmutation/tools/sched/lmk-sched replay "$sched"; then
    echo "sched smoke: FAIL — minimized reproducer replays clean" >&2
    return 1
  fi
  echo "sched smoke: mutation caught, shrunk to $directives directive(s)," \
       "reproducer replays to the same failure"
}

run_audit() {
  echo "== check.sh: audit leg (LMK_AUDIT=1) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)"
  LMK_AUDIT=1 ctest --test-dir build-check --output-on-failure -j"$(nproc)"
}

run_bench_smoke() {
  echo "== check.sh: bench smoke (toy-scale online bench_perf) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" \
    --target bench_perf bench_fig2_synthetic_nolb >/dev/null
  # Toy scale: the offline phases shrink with the workload, while the
  # engine storm (events/sec, the number bench_diff gates on) measures
  # per-event dispatch cost, which is scale-independent.
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_ONLINE_EVENTS=1000000 \
    LMK_PERF_OUT=build-check/BENCH_perf.smoke.json \
    LMK_PERF_BASELINE=bench/BENCH_perf.baseline.json \
    ./build-check/bench/bench_perf
  # Sweep-engine determinism: one figure sweep must emit byte-identical
  # tables strictly serial (LMK_THREADS=1) and parallel (LMK_THREADS=8).
  echo "== check.sh: bench smoke (fig2 sweep, 1 vs 8 threads) =="
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_THREADS=1 ./build-check/bench/bench_fig2_synthetic_nolb \
    > build-check/fig2_sweep.t1.out
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_THREADS=8 ./build-check/bench/bench_fig2_synthetic_nolb \
    > build-check/fig2_sweep.t8.out
  cmp build-check/fig2_sweep.t1.out build-check/fig2_sweep.t8.out
  echo "bench smoke: fig2 sweep byte-identical at 1 and 8 threads"
  scripts/bench_diff.py --current build-check/BENCH_perf.smoke.json "$@"
}

run_flagship_smoke() {
  echo "== check.sh: flagship smoke (reduced open-loop scenario) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target bench_flagship >/dev/null
  # The deterministic section (virtual-time latency, wire bytes, arena
  # marks, recall) must be byte-identical at any thread count; only the
  # wallclock section may differ.  Run the reduced scenario serial and
  # wide, compare the deterministic JSON, gate on the committed baseline.
  LMK_THREADS=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.smoke.json \
    LMK_FLAGSHIP_DET_OUT=build-check/flagship_det.t1.json \
    ./build-check/bench/bench_flagship
  LMK_THREADS=8 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.smoke.t8.json \
    LMK_FLAGSHIP_DET_OUT=build-check/flagship_det.t8.json \
    ./build-check/bench/bench_flagship >/dev/null
  cmp build-check/flagship_det.t1.json build-check/flagship_det.t8.json
  echo "flagship smoke: deterministic section byte-identical at 1 and 8 threads"
  scripts/bench_diff.py --flagship-only \
    --flagship build-check/BENCH_flagship.smoke.json "$@"
}

run_serve_smoke() {
  echo "== check.sh: serve smoke (serving-layer gate) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target bench_flagship >/dev/null
  # Serve-on sweep, serial and wide: the whole serving tier (cache fill
  # order, coalescing flushes, shed/retry/drop schedule) runs in virtual
  # time, so the deterministic section — serve sweep included — must be
  # byte-identical at any thread count. LMK_SERVE_VERIFY=1 re-solves
  # every cache hit against the store in-line: a stale hit aborts the
  # bench rather than passing the gate.
  LMK_THREADS=1 LMK_FLAGSHIP_SERVE=1 LMK_SERVE_VERIFY=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.serve.json \
    LMK_FLAGSHIP_DET_OUT=build-check/serve_det.t1.json \
    ./build-check/bench/bench_flagship
  LMK_THREADS=8 LMK_FLAGSHIP_SERVE=1 LMK_SERVE_VERIFY=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.serve.t8.json \
    LMK_FLAGSHIP_DET_OUT=build-check/serve_det.t8.json \
    ./build-check/bench/bench_flagship >/dev/null
  cmp build-check/serve_det.t1.json build-check/serve_det.t8.json
  echo "serve smoke: deterministic section byte-identical at 1 and 8 threads"
  scripts/bench_diff.py --flagship-only \
    --flagship build-check/BENCH_flagship.serve.json "$@"
}

run_alloc_guard() {
  echo "== check.sh: alloc-guard leg (LMK_ALLOC_GUARD + LMK_ARENA_GUARD) =="
  # Own build directory: the interposed allocator and the checked arena
  # handles must never mix objects with the plain build.
  cmake -B build-check-allocguard -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON -DLMK_ALLOC_GUARD=ON -DLMK_ARENA_GUARD=ON
  cmake --build build-check-allocguard -j"$(nproc)"
  ctest --test-dir build-check-allocguard --output-on-failure -j"$(nproc)"
  # Toy-scale storm: the steady-state phase must report zero allocations
  # (bench_diff's hard gate); scale does not matter, per-event behaviour
  # does.
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_ONLINE_EVENTS=1000000 \
    LMK_PERF_OUT=build-check-allocguard/BENCH_perf.allocguard.json \
    ./build-check-allocguard/bench/bench_perf
  scripts/bench_diff.py \
    --current build-check-allocguard/BENCH_perf.allocguard.json "$@"
}

if [ "${1:-}" = "--alloc-guard" ]; then
  shift
  run_alloc_guard "$@"
  echo "check.sh: OK (alloc-guard leg)"
  exit 0
fi

if [ "${1:-}" = "--flagship-smoke" ]; then
  shift
  run_flagship_smoke "$@"
  echo "check.sh: OK (flagship smoke)"
  exit 0
fi

if [ "${1:-}" = "--bench-smoke" ]; then
  shift
  run_bench_smoke "$@"
  echo "check.sh: OK (bench smoke)"
  exit 0
fi

if [ "${1:-}" = "--sched-smoke" ]; then
  run_sched_smoke
  echo "check.sh: OK (sched smoke)"
  exit 0
fi

if [ "${1:-}" = "--serve-smoke" ]; then
  shift
  run_serve_smoke "$@"
  echo "check.sh: OK (serve smoke)"
  exit 0
fi

if [ "${1:-}" = "--audit" ]; then
  run_audit
  echo "check.sh: OK (audit leg, LMK_THREADS=$LMK_THREADS)"
  exit 0
fi

if [ "${1:-}" = "--all" ]; then
  run_lint
  BUILD_DIR=build-check scripts/tidy.sh
  run_leg ""
  run_audit
  for san in address undefined thread; do
    run_leg "$san"
  done
  run_alloc_guard
  run_sched_smoke
  run_serve_smoke
  echo "check.sh: OK (--all: lint + tidy + plain + audit + asan/ubsan/tsan" \
       "+ alloc-guard + sched-smoke + serve-smoke," \
       "LMK_THREADS=$LMK_THREADS)"
  exit 0
fi

run_leg "${LMK_SANITIZE:-}"
echo "check.sh: OK (${LMK_SANITIZE:-no sanitizer}, LMK_THREADS=$LMK_THREADS)"
