#!/usr/bin/env python3
"""Performance regression check for BENCH_perf.json.

Compares a freshly produced BENCH_perf.json against the committed
pre-optimization baseline (bench/BENCH_perf.baseline.json by default)
and exits nonzero when:

  * engine events/sec regressed by more than --threshold (default 25%);
  * queries/sec regressed by more than --threshold (default 25%);
  * scanned entries per subquery GREW by more than --scan-threshold
    (default 50%) — a work metric, not a wall-clock one, so it is
    immune to machine noise; silent growth usually means the
    order-index fast path stopped being hit;
  * the sweep phase's parallel speedup fell below --sweep-floor
    (default 3x) — enforced only when the measuring machine actually
    has >= --sweep-min-cores hardware threads and the run used >= that
    many pool threads, since a 1-2 core container physically cannot
    show a parallel speedup. Under-provisioned machines print the
    numbers and skip the gate, with a note saying why.

When a flagship run (BENCH_flagship.json, produced by bench_flagship)
and its committed baseline are both present, three further gates run on
the *deterministic* section — virtual-time latencies and exact byte
counts, so they are immune to machine noise and any violation is a real
behaviour change, not jitter:

  * p99 response latency must not exceed the baseline's by more than
    --flagship-latency-threshold (default 10%);
  * the streaming-build arena high-water mark must stay within
    --arena-threshold (default 25%) of the baseline's (the batch-sized
    memory budget of the streaming insert path);
  * total bytes on the wire must not grow by more than
    --wire-threshold (default 10%);
  * recall@10 (deterministic sampled-oracle mean) must not fall below
    --flagship-recall-floor (default 0.90) — an absolute floor, not a
    ratio, so an approximate local store cannot silently trade recall
    for speed;
  * scanned entries per subquery must not grow by more than
    --flagship-scan-threshold (default 50%).

The flagship gates are scale-matched: when the current run's "scale"
section differs from the baseline's (e.g. an LMK_FULL run against the
committed smoke baseline), the gates are skipped with a note.

Serving-tier gates: when the current flagship run carries a
deterministic "serve" section (produced with LMK_FLAGSHIP_SERVE=1),
four absolute gates run on it — absolute, not baseline-relative,
because the section compares serve-on against serve-off inside one
run:

  * the efficiency rung's result digests must match (the cache and the
    coalescing window must not change any query's result set);
  * the cache hit rate must reach --serve-hit-floor (default 0.30)
    under the Zipf-pooled workload;
  * bytes on the wire with batching must not exceed the serve-off
    bytes: wire_ratio <= --serve-wire-ceiling (default 1.0);
  * at the --serve-overload-mult (default 4x) rung of the arrival-rate
    ladder, p99 with shedding on must be strictly below p99 with the
    serving tier off — load shedding must buy tail latency under
    overload or it is dead weight.

Serve-off runs carry no "serve" section and the gates auto-skip with a
printed note, so the default pipelines are unaffected.

Allocation-discipline gate: when the current BENCH_perf.json carries an
"alloc" section with "guard_enabled": true (an LMK_ALLOC_GUARD build),
the engine steady-state phase — and, when present, the serving tier's
cache-probe steady state — must report ZERO allocations and frees.
This is a correctness property of the engine hot path, not a wall-clock
number, so it is a HARD failure: it exits nonzero even under
--warn-only. Plain builds (guard_enabled false) skip the gate with a
note.

Throughput on shared CI runners is noisy, so CI invokes this with
--warn-only: the comparison is printed and annotated but never breaks
the build. Local runs (scripts/check.sh --bench-smoke) fail hard.
The sweep cells-per-sec is also compared to the baseline's
informationally (the committed baseline may come from different
hardware).

Malformed input (unreadable file, invalid JSON, a non-numeric value
where a number is required) exits nonzero with a one-line
"bench_diff: <path>: ..." message — never a Python traceback.
"""

import argparse
import json
import sys


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc.get("online"), dict):
        sys.exit(f"bench_diff: {path} has no \"online\" section")
    return doc


def section(mapping, key, path):
    """`mapping[key]` as a dict; {} when absent, readable exit when
    present but not an object (a malformed producer, not a bug here)."""
    val = mapping.get(key)
    if val is None:
        return {}
    if not isinstance(val, dict):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not a JSON object")
    return val


def fnum(mapping, key, path, default=0.0):
    val = mapping.get(key, default)
    try:
        return float(val)
    except (TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not a number "
                 f"(got {val!r})")


def inum(mapping, key, path, default=0):
    val = mapping.get(key, default)
    try:
        return int(val)
    except (TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not an integer "
                 f"(got {val!r})")


def load_flagship(path):
    """Flagship docs are optional: None (with a reason) when absent."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError:
        return None, f"{path} not present"
    except ValueError as err:
        sys.exit(f"bench_diff: {path} is not valid JSON: {err}")
    if not isinstance(doc.get("deterministic"), dict):
        sys.exit(f"bench_diff: {path} has no \"deterministic\" section")
    return doc, None


def check_flagship(args, gate):
    base_doc, why = load_flagship(args.flagship_baseline)
    if base_doc is None:
        print(f"bench_diff: flagship gates skipped — {why}")
        return
    cur_doc, why = load_flagship(args.flagship)
    if cur_doc is None:
        print(f"bench_diff: flagship gates skipped — {why}")
        return

    base_scale = base_doc.get("scale", {})
    cur_scale = cur_doc.get("scale", {})
    if base_scale != cur_scale:
        diff = {k for k in set(base_scale) | set(cur_scale)
                if base_scale.get(k) != cur_scale.get(k)}
        print(f"bench_diff: flagship gates skipped — scale mismatch vs "
              f"baseline ({', '.join(sorted(diff))}); deterministic "
              f"numbers are only comparable at identical scale")
        return

    base = base_doc["deterministic"]
    cur = cur_doc["deterministic"]

    # --- p99 latency (virtual time: deterministic, noise-free) ---
    base_p99 = fnum(section(base, "latency_ms", args.flagship_baseline),
                    "p99", args.flagship_baseline)
    cur_p99 = fnum(section(cur, "latency_ms", args.flagship), "p99",
                   args.flagship)
    if base_p99 > 0 and cur_p99 > 0:
        growth = cur_p99 / base_p99
        ceil = 1.0 + args.flagship_latency_threshold
        print(f"bench_diff: flagship p99 {cur_p99:.2f}ms vs baseline "
              f"{base_p99:.2f}ms ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship p99 latency grew {growth:.2f}x over baseline "
                 f"(ceiling {ceil:.2f}x) — virtual-time metric, not noise")
    else:
        print("bench_diff: flagship p99 missing on one side (skipped)")

    # --- arena high-water mark (streaming-build memory budget) ---
    base_arena = inum(section(base, "memory", args.flagship_baseline),
                      "arena_high_water", args.flagship_baseline)
    cur_arena = inum(section(cur, "memory", args.flagship),
                     "arena_high_water", args.flagship)
    if base_arena > 0 and cur_arena > 0:
        budget = int(base_arena * (1.0 + args.arena_threshold))
        print(f"bench_diff: flagship arena high-water {cur_arena:,} bytes "
              f"vs baseline {base_arena:,} (budget {budget:,})")
        if cur_arena > budget:
            gate(f"flagship arena high-water {cur_arena:,} bytes exceeds "
                 f"the budget {budget:,} (baseline {base_arena:,} "
                 f"+ {args.arena_threshold:.0%})")
    else:
        print("bench_diff: flagship arena high-water missing on one side "
              "(skipped)")

    # --- bytes on the wire (exact counter, hard ceiling) ---
    base_wire = fnum(section(base, "wire", args.flagship_baseline),
                     "total_bytes", args.flagship_baseline)
    cur_wire = fnum(section(cur, "wire", args.flagship), "total_bytes",
                    args.flagship)
    if base_wire > 0 and cur_wire > 0:
        growth = cur_wire / base_wire
        ceil = 1.0 + args.wire_threshold
        print(f"bench_diff: flagship wire {cur_wire:,.0f} bytes vs "
              f"baseline {base_wire:,.0f} ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship bytes-on-wire grew {growth:.2f}x over "
                 f"baseline (ceiling {ceil:.2f}x) — exact counter, "
                 f"not noise")
    else:
        print("bench_diff: flagship wire bytes missing on one side "
              "(skipped)")

    # --- recall floor (deterministic sampled-oracle mean) ---
    cur_recall = fnum(section(cur, "recall", args.flagship), "mean",
                      args.flagship, default=-1.0)
    base_recall = fnum(section(base, "recall", args.flagship_baseline),
                       "mean", args.flagship_baseline, default=-1.0)
    if cur_recall >= 0:
        print(f"bench_diff: flagship recall {cur_recall:.3f} vs baseline "
              f"{base_recall:.3f} (floor {args.flagship_recall_floor:.2f})")
        if cur_recall < args.flagship_recall_floor:
            gate(f"flagship recall {cur_recall:.3f} fell below the "
                 f"{args.flagship_recall_floor:.2f} floor — deterministic "
                 f"metric, usually a local-store or refinement change")
    else:
        print("bench_diff: flagship recall missing (floor skipped)")

    # --- scanned/subquery ceiling (per-node solve work) ---
    base_scan = fnum(base, "scanned_per_subquery", args.flagship_baseline)
    cur_scan = fnum(cur, "scanned_per_subquery", args.flagship)
    if base_scan > 0 and cur_scan > 0:
        growth = cur_scan / base_scan
        ceil = 1.0 + args.flagship_scan_threshold
        print(f"bench_diff: flagship scanned/subquery {cur_scan:.1f} vs "
              f"baseline {base_scan:.1f} ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship scanned/subquery grew {growth:.2f}x over "
                 f"baseline (ceiling {ceil:.2f}x) — deterministic work "
                 f"metric, not noise")
    else:
        print("bench_diff: flagship scanned/subquery missing on one side "
              "(skipped)")

    # Informational: queue depth travels with the same file.
    base_q = base.get("queue", {}).get("max_depth")
    cur_q = cur.get("queue", {}).get("max_depth")
    if base_q is not None and cur_q is not None:
        print(f"bench_diff: flagship max queue depth {cur_q} vs baseline "
              f"{base_q} (informational)")


def check_serve(args, gate):
    """Serving-tier gates on the current flagship run's deterministic
    "serve" section. Absolute gates (the section already holds the
    on-vs-off comparison), so no baseline is consulted; serve-off runs
    carry no section and skip."""
    cur_doc, why = load_flagship(args.flagship)
    if cur_doc is None:
        print(f"bench_diff: serve gates skipped — {why}")
        return
    serve = cur_doc["deterministic"].get("serve")
    if not isinstance(serve, dict):
        print(f"bench_diff: serve gates skipped — no \"serve\" section in "
              f"{args.flagship} (produce one with LMK_FLAGSHIP_SERVE=1)")
        return

    eff = section(serve, "efficiency", args.flagship)

    # --- result digests: the serving tier must be invisible to results ---
    if eff.get("digest_match") is not True:
        gate("serve efficiency rung: result digests differ between "
             "serve-on and serve-off — the cache or the coalescing "
             "window changed a query's result set")
    else:
        print("bench_diff: serve digests match (cache + coalescing "
              "result-transparent)")

    # --- cache hit rate floor (Zipf-pooled workload) ---
    hit_rate = fnum(eff, "hit_rate", args.flagship, default=-1.0)
    if hit_rate >= 0:
        print(f"bench_diff: serve hit rate {hit_rate:.3f} "
              f"(floor {args.serve_hit_floor:.2f})")
        if hit_rate < args.serve_hit_floor:
            gate(f"serve cache hit rate {hit_rate:.3f} is below the "
                 f"{args.serve_hit_floor:.2f} floor — the hot-result "
                 f"cache stopped absorbing the Zipf head")
    else:
        print("bench_diff: serve hit rate missing (floor skipped)")

    # --- bytes on the wire with batching (exact counters) ---
    wire_ratio = fnum(eff, "wire_ratio", args.flagship, default=-1.0)
    if wire_ratio >= 0:
        print(f"bench_diff: serve wire ratio {wire_ratio:.4f} "
              f"(ceiling {args.serve_wire_ceiling:.2f})")
        if wire_ratio > args.serve_wire_ceiling:
            gate(f"serve wire ratio {wire_ratio:.4f} exceeds the "
                 f"{args.serve_wire_ceiling:.2f} ceiling — the "
                 f"coalescing window stopped paying for itself in "
                 f"query bytes")
    else:
        print("bench_diff: serve wire ratio missing (ceiling skipped)")

    # --- overload ladder: shedding must buy p99 at the target rung ---
    ladder = serve.get("overload")
    if not isinstance(ladder, list):
        print("bench_diff: serve overload ladder missing (gate skipped)")
        return
    rung = next((r for r in ladder if isinstance(r, dict)
                 and r.get("mult") == args.serve_overload_mult), None)
    if rung is None:
        print(f"bench_diff: serve overload gate skipped — no "
              f"{args.serve_overload_mult}x rung in the ladder")
        return
    p99_off = fnum(rung, "p99_off", args.flagship)
    p99_on = fnum(rung, "p99_on", args.flagship)
    if p99_off > 0 and p99_on > 0:
        print(f"bench_diff: serve overload {args.serve_overload_mult}x "
              f"p99 {p99_on:.1f}ms shedding-on vs {p99_off:.1f}ms off "
              f"(shed {rung.get('shed')}, dropped {rung.get('dropped')})")
        if p99_on >= p99_off:
            gate(f"serve overload {args.serve_overload_mult}x rung: p99 "
                 f"with shedding on ({p99_on:.1f}ms) is not below the "
                 f"serve-off p99 ({p99_off:.1f}ms) — admission control "
                 f"stopped buying tail latency under overload")
    else:
        print("bench_diff: serve overload p99 missing on one side "
              "(gate skipped)")


def check_alloc(cur_doc, path, hard):
    """Zero-allocation gate on the engine steady-state phase.

    Only meaningful for LMK_ALLOC_GUARD builds (guard_enabled true);
    plain builds always report zeros because the interposed counters do
    not exist, and gating on those would be vacuous.
    """
    alloc = section(cur_doc, "alloc", path)
    if not alloc:
        print("bench_diff: alloc gate skipped — no \"alloc\" section "
              f"in {path} (pre-guard producer)")
        return
    if not alloc.get("guard_enabled"):
        print("bench_diff: alloc gate skipped — alloc guard disabled "
              "in this build (configure with -DLMK_ALLOC_GUARD=ON)")
        return
    warm = section(alloc, "engine_warmup", path)
    steady = section(alloc, "engine_steady_state", path)
    w_allocs = inum(warm, "allocs", path)
    w_bytes = inum(warm, "alloc_bytes", path)
    s_allocs = inum(steady, "allocs", path)
    s_frees = inum(steady, "frees", path)
    s_bytes = inum(steady, "alloc_bytes", path)
    print(f"bench_diff: alloc guard — engine warmup {w_allocs:,} allocs "
          f"/ {w_bytes:,} bytes; steady state {s_allocs:,} allocs, "
          f"{s_frees:,} frees")
    if s_allocs > 0 or s_frees > 0:
        hard(f"engine steady state performed {s_allocs:,} allocations "
             f"and {s_frees:,} frees ({s_bytes:,} bytes) — the event "
             f"engine hot path must be allocation-free after warmup")
    else:
        print("bench_diff: alloc gate OK (zero steady-state "
              "allocations)")
    serve = alloc.get("serve_steady_state")
    if not isinstance(serve, dict):
        print("bench_diff: serve alloc gate skipped — no "
              "\"serve_steady_state\" phase (pre-serve producer)")
        return
    v_allocs = inum(serve, "allocs", path)
    v_frees = inum(serve, "frees", path)
    v_bytes = inum(serve, "alloc_bytes", path)
    if v_allocs > 0 or v_frees > 0:
        hard(f"serve steady state performed {v_allocs:,} allocations "
             f"and {v_frees:,} frees ({v_bytes:,} bytes) — cache probe "
             f"and invalidation loops must be allocation-free once "
             f"filled")
    else:
        print("bench_diff: serve alloc gate OK (zero steady-state "
              "allocations)")


def finish(args, failures, hard_failures, label):
    """Shared exit protocol: soft failures respect --warn-only, hard
    failures (allocation discipline) never do."""
    for msg in failures:
        full = f"bench_diff: REGRESSION — {msg}"
        if args.warn_only and not hard_failures:
            print(f"::warning::{full}")
            print(full)
        else:
            print(full, file=sys.stderr)
    for msg in hard_failures:
        print(f"bench_diff: HARD FAILURE — {msg}", file=sys.stderr)
    if hard_failures:
        print("bench_diff: hard failures exit nonzero even under "
              "--warn-only", file=sys.stderr)
        return 1
    if failures:
        return 0 if args.warn_only else 1
    print(f"bench_diff: OK{label}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="bench/BENCH_perf.baseline.json")
    ap.add_argument("--current", default="BENCH_perf.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional wall-clock regression "
                         "(events/sec, queries/sec)")
    ap.add_argument("--scan-threshold", type=float, default=0.50,
                    help="allowed fractional growth of scanned entries "
                         "per subquery")
    ap.add_argument("--sweep-floor", type=float, default=3.0,
                    help="required sweep speedup (tN vs t1) on capable "
                         "hardware")
    ap.add_argument("--sweep-min-cores", type=int, default=8,
                    help="hardware threads (and pool threads) needed "
                         "before the sweep floor is enforced")
    ap.add_argument("--flagship-baseline",
                    default="bench/BENCH_flagship.baseline.json")
    ap.add_argument("--flagship", default="BENCH_flagship.json",
                    help="current flagship run (gates skipped when the "
                         "file is absent)")
    ap.add_argument("--flagship-latency-threshold", type=float,
                    default=0.10,
                    help="allowed fractional growth of the flagship p99 "
                         "virtual-time latency")
    ap.add_argument("--arena-threshold", type=float, default=0.25,
                    help="allowed fractional growth of the flagship "
                         "arena high-water mark")
    ap.add_argument("--wire-threshold", type=float, default=0.10,
                    help="allowed fractional growth of flagship bytes "
                         "on the wire")
    ap.add_argument("--flagship-recall-floor", type=float, default=0.90,
                    help="minimum flagship recall@10 (deterministic "
                         "sampled-oracle mean)")
    ap.add_argument("--flagship-scan-threshold", type=float, default=0.50,
                    help="allowed fractional growth of flagship scanned "
                         "entries per subquery")
    ap.add_argument("--serve-hit-floor", type=float, default=0.30,
                    help="minimum serve cache hit rate on the flagship "
                         "efficiency rung (LMK_FLAGSHIP_SERVE runs)")
    ap.add_argument("--serve-wire-ceiling", type=float, default=1.0,
                    help="maximum serve-on/serve-off query-bytes ratio "
                         "with the coalescing window enabled")
    ap.add_argument("--serve-overload-mult", type=int, default=4,
                    help="arrival-rate multiple whose ladder rung must "
                         "show shedding-on p99 below serve-off p99")
    ap.add_argument("--flagship-only", action="store_true",
                    help="run only the flagship gates (for a CI leg that "
                         "produces no BENCH_perf.json)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but always exit 0 (CI)")
    args = ap.parse_args()

    failures = []
    hard_failures = []

    def gate(msg):
        failures.append(msg)

    def hard(msg):
        hard_failures.append(msg)

    if args.flagship_only:
        check_flagship(args, gate)
        check_serve(args, gate)
        return finish(args, failures, hard_failures, " (flagship only)")

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    base = base_doc["online"]
    cur = cur_doc["online"]

    # --- engine events/sec (wall clock, hard floor) ---
    base_eps = fnum(base, "engine_events_per_sec", args.baseline)
    cur_eps = fnum(cur, "engine_events_per_sec", args.current)
    if base_eps <= 0 or cur_eps <= 0:
        sys.exit(f"bench_diff: {args.current}: missing "
                 f"engine_events_per_sec")
    ratio = cur_eps / base_eps
    floor = 1.0 - args.threshold
    print(f"bench_diff: engine {cur_eps:,.0f} events/s vs baseline "
          f"{base_eps:,.0f} ({ratio:.2f}x)")
    if ratio < floor:
        gate(f"engine events/sec is {ratio:.2f}x of baseline "
             f"(floor {floor:.2f}x)")

    # --- queries/sec (wall clock, hard floor) ---
    base_qps = fnum(base, "queries_per_sec", args.baseline)
    cur_qps = fnum(cur, "queries_per_sec", args.current)
    if base_qps > 0 and cur_qps > 0:
        qratio = cur_qps / base_qps
        print(f"bench_diff: queries {cur_qps:,.1f}/s vs baseline "
              f"{base_qps:,.1f}/s ({qratio:.2f}x)")
        if qratio < floor:
            gate(f"queries/sec is {qratio:.2f}x of baseline "
                 f"(floor {floor:.2f}x)")
    else:
        print("bench_diff: queries_per_sec missing on one side (skipped)")

    # --- scanned per subquery (work metric, hard ceiling) ---
    base_scan = fnum(base, "scanned_per_subquery", args.baseline)
    cur_scan = fnum(cur, "scanned_per_subquery", args.current)
    if base_scan > 0 and cur_scan > 0:
        growth = cur_scan / base_scan
        ceil = 1.0 + args.scan_threshold
        print(f"bench_diff: scanned/subquery {cur_scan:.1f} vs baseline "
              f"{base_scan:.1f} ({growth:.2f}x)")
        if growth > ceil:
            gate(f"scanned/subquery grew {growth:.2f}x over baseline "
                 f"(ceiling {ceil:.2f}x) — deterministic work metric, "
                 f"not noise")
    else:
        print("bench_diff: scanned_per_subquery missing on one side "
              "(skipped)")

    # --- sweep phase: parallel cells throughput ---
    cur_sweep = cur_doc.get("sweep")
    if isinstance(cur_sweep, dict):
        cells = inum(cur_sweep, "cells", args.current)
        speedup = fnum(cur_sweep, "speedup", args.current)
        hw = inum(cur_sweep, "hardware_threads", args.current)
        threads = inum(cur_doc, "threads", args.current)
        peak = inum(cur_sweep, "peak_resident", args.current)
        cap = inum(cur_sweep, "resident_cap", args.current)
        print(f"bench_diff: sweep {cells} cells, speedup {speedup:.2f}x "
              f"(pool {threads}, hw {hw}, peak resident {peak}/{cap})")
        if cap > 0 and peak > cap:
            gate(f"sweep peak resident {peak} exceeded the cap {cap}")
        base_sweep = base_doc.get("sweep")
        if isinstance(base_sweep, dict):
            base_cps = float(base_sweep.get("cells_per_sec_n_threads", 0))
            cur_cps = float(cur_sweep.get("cells_per_sec_n_threads", 0))
            if base_cps > 0 and cur_cps > 0:
                print(f"bench_diff: sweep {cur_cps:.2f} cells/s vs "
                      f"baseline {base_cps:.2f} (informational — baseline "
                      f"hardware may differ)")
        if hw >= args.sweep_min_cores and threads >= args.sweep_min_cores:
            if speedup < args.sweep_floor:
                gate(f"sweep speedup {speedup:.2f}x is below the "
                     f"{args.sweep_floor:.1f}x floor on {hw}-thread "
                     f"hardware")
            else:
                print(f"bench_diff: sweep OK "
                      f"(>= {args.sweep_floor:.1f}x floor)")
        else:
            print(f"bench_diff: sweep floor skipped — needs >= "
                  f"{args.sweep_min_cores} hardware threads and pool "
                  f"threads (have hw={hw}, pool={threads}); a "
                  f"parallel-speedup gate on this machine would only "
                  f"measure scheduler noise")
    else:
        print("bench_diff: no sweep section in current run (skipped)")

    # --- allocation discipline (hard gate, ignores --warn-only) ---
    check_alloc(cur_doc, args.current, hard)

    # --- flagship open-loop scenario (deterministic gates) ---
    check_flagship(args, gate)

    # --- serving tier (absolute gates on the current flagship run) ---
    check_serve(args, gate)

    return finish(args, failures, hard_failures, "")


if __name__ == "__main__":
    sys.exit(main())
