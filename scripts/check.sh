#!/usr/bin/env bash
# Correctness gate for the simulator core (see DESIGN.md "Correctness
# tooling").
#
# Usage:
#   scripts/check.sh                    # one build + ctest (RelWithDebInfo)
#   LMK_SANITIZE=address,undefined scripts/check.sh
#                                       # ASan+UBSan (CI's sanitizer leg;
#                                       # any list naming `undefined` makes
#                                       # UBSan findings fail their test)
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
#                                       #   5. ASan+UBSan build (CI's
#                                       #      sanitizer leg), then TSan
#                                       #      build, each + ctest
#                                       #   6. alloc-guard leg (below)
#                                       #   7. sched smoke (below)
#   scripts/check.sh --alloc-guard      # allocation-discipline leg: build
#                                       # with -DLMK_ALLOC_GUARD=ON
#                                       # (operator new/delete
#                                       # interposed) + ctest; the gate is
#                                       # AllocGuard.EngineSteadyState-
#                                       # DispatchAllocatesNothing (zero
#                                       # steady-state allocations in an
#                                       # event-engine storm)
#   scripts/check.sh --flagship-smoke   # thread-count determinism + the
#                                       # flagship gate: the fig2, fig3
#                                       # and fig5 sweeps at toy scale
#                                       # (fig3 and fig5 run load
#                                       # migration) and the
#                                       # reduced-scale bench_flagship run
#                                       # (256 nodes / 20k objects), each at
#                                       # LMK_THREADS=1 and =8 with a byte
#                                       # compare, then bench_diff.py gates
#                                       # p99 latency, bytes on the wire,
#                                       # recall and scanned entries per
#                                       # subquery against the committed
#                                       # bench/BENCH_flagship.baseline.json;
#                                       # last, perfbench/check_determinism.py
#                                       # (the repo benchmark's deterministic
#                                       # sections at LMK_THREADS=1, nproc and
#                                       # a repeat; its build tree under
#                                       # build-check/perfbench)
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
# sanitizer list gets its own build directory (build-check-<list>) so
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

run_flagship_smoke() {
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target bench_flagship \
    bench_fig2_synthetic_nolb bench_fig3_synthetic_lb \
    bench_fig5_trec_lb >/dev/null
  # Sweep-engine determinism: each figure sweep must emit byte-identical
  # tables strictly serial (LMK_THREADS=1) and parallel (LMK_THREADS=8).
  # fig3 and fig5 run load migration (fig5 on the TREC-like corpus), so
  # they put the load balancer and the leave/rejoin path under the same
  # contract on two datasets.
  local bench fig t
  for bench in fig2_synthetic_nolb fig3_synthetic_lb fig5_trec_lb; do
    fig="${bench%%_*}"
    echo "== check.sh: flagship smoke (${fig} sweep, 1 vs 8 threads) =="
    for t in 1 8; do
      LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
        LMK_THREADS="$t" "./build-check/bench/bench_${bench}" \
        > "build-check/${fig}_sweep.t${t}.out"
    done
    cmp "build-check/${fig}_sweep.t1.out" "build-check/${fig}_sweep.t8.out"
    echo "flagship smoke: ${fig} sweep byte-identical at 1 and 8 threads"
  done
  echo "== check.sh: flagship smoke (reduced open-loop scenario) =="
  # The deterministic section (virtual-time latency, wire bytes, memory
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
  scripts/bench_diff.py --flagship build-check/BENCH_flagship.smoke.json
  echo "== check.sh: flagship smoke (perfbench deterministic sections) =="
  # Every perfbench workload's deterministic section (virtual-time
  # metrics, counts, result digests, checks) must be byte-identical at
  # LMK_THREADS=1, at the machine's thread count and on a repeat.
  # run.py builds its own tree under CARGO_TARGET_DIR.
  CARGO_TARGET_DIR="$PWD/build-check/perfbench" \
    python3 perfbench/check_determinism.py
}

run_alloc_guard() {
  echo "== check.sh: alloc-guard leg (LMK_ALLOC_GUARD) =="
  # Own build directory: the interposed allocator must never mix objects
  # with the plain build.
  cmake -B build-check-allocguard -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON -DLMK_ALLOC_GUARD=ON
  cmake --build build-check-allocguard -j"$(nproc)"
  ctest --test-dir build-check-allocguard --output-on-failure -j"$(nproc)"
}

if [ "${1:-}" = "--alloc-guard" ]; then
  run_alloc_guard
  echo "check.sh: OK (alloc-guard leg)"
  exit 0
fi

if [ "${1:-}" = "--flagship-smoke" ]; then
  run_flagship_smoke
  echo "check.sh: OK (flagship smoke)"
  exit 0
fi

if [ "${1:-}" = "--sched-smoke" ]; then
  run_sched_smoke
  echo "check.sh: OK (sched smoke)"
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
  for san in address,undefined thread; do
    run_leg "$san"
  done
  run_alloc_guard
  run_sched_smoke
  echo "check.sh: OK (--all: lint + tidy + plain + audit + asan+ubsan" \
       "+ tsan + alloc-guard + sched-smoke, LMK_THREADS=$LMK_THREADS)"
  exit 0
fi

run_leg "${LMK_SANITIZE:-}"
echo "check.sh: OK (${LMK_SANITIZE:-no sanitizer}, LMK_THREADS=$LMK_THREADS)"
