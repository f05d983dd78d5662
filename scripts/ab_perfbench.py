#!/usr/bin/env python3
"""A/B comparison of two checkouts on the repository benchmark.

    scripts/ab_perfbench.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B --seconds S [--claim METRIC]

For every seed it runs each checkout's own perfbench/run.py (trace off)
once, with each side's build root set to <checkout>/.bench_build through
CARGO_TARGET_DIR, so the two builds never share a tree. Even seeds run
the parent first and odd seeds the change first, so host load that
drifts over time falls on both sides alike.

It then prints, for every end-to-end metric in the parent's
BENCHMARK.json: each side's median and quartiles, the median over pairs
of change/parent, and how many pairs the change won and tied (the better
direction is the metric's "better" field). With --claim METRIC it also
prints whether the gain rule holds for that metric: the change wins at
least nine tenths of the pairs, ties counting for neither, and the
medians differ in the better direction by more than the distance
between the parent's quartiles.

Each pair's deterministic sections (perfbench's artifact,
<workload>-seed<n>.json) are compared when both runs ended in the same
state: always on a read-only workload, and on a workload with writes
when both sides timed the same number of operations (its final check
reads the corpus the timed window left), which every --seconds 0 pair
does.

Exit status: 0 when every run succeeded and every compared pair's
deterministic sections are identical; 1 when a run failed or some
compared pair's sections differ; 2 on bad arguments. The claim's
verdict is printed, not returned.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """"A-B" (inclusive) or "N" -> list of ints."""
    lo, sep, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range: {text}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"bad seed range: {text}")
    return list(range(first, last + 1))


def end_to_end(checkout):
    """BENCHMARK.json's end-to-end metrics: [(name, unit, better)]."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run_side(checkout, workload, seed, seconds):
    """One benchmark run; returns (result line, deterministic section,
    end state) or raises RuntimeError with the run's own error text.
    The end state is None on a read-only workload, else the number of
    operations the run timed."""
    checkout = os.path.abspath(checkout)
    root = os.path.join(checkout, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=root)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                       text=True, check=False)
    if p.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} exited with "
                           f"{p.returncode}: {p.stderr.strip()[-2000:]}")
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
        artifact = os.path.join(root, "perfbench-artifacts",
                                f"{workload}-seed{seed}.json")
        with open(artifact, encoding="utf-8") as f:
            art = json.load(f)
        end_state = (art["wallclock"]["ops_timed"]
                     if art["config"]["scale"]["write_share"] > 0 else None)
        deterministic = art["deterministic"]
    except (IndexError, ValueError, KeyError, TypeError, OSError) as err:
        raise RuntimeError(f"{checkout} seed {seed}: unreadable result: "
                           f"{err}") from None
    return result, deterministic, end_state


def quartiles(values):
    """(q1, median, q3), interpolating between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(pairs, name, better):
    """Summary of one metric over [(parent_metrics, change_metrics)]."""
    par = [p[name]["value"] for p, _ in pairs]
    chg = [c[name]["value"] for _, c in pairs]
    sign = -1 if better == "lower" else 1
    wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(par, chg) if a == b)
    ratios = [b / a for a, b in zip(par, chg) if a != 0]
    return {
        "parent": quartiles(par),
        "change": quartiles(chg),
        "ratio": statistics.median(ratios) if ratios else float("nan"),
        "wins": wins,
        "ties": ties,
        "sign": sign,
    }


def claim_holds(s, pairs):
    """The gain rule: wins >= 9/10 of pairs, and the medians differ in
    the better direction by more than the parent's quartile distance."""
    p_q1, p_med, p_q3 = s["parent"]
    gap = s["sign"] * (s["change"][1] - p_med)
    return s["wins"] * 10 >= 9 * pairs and gap > p_q3 - p_q1, gap, p_q3 - p_q1


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--claim", default=None)
    args = ap.parse_args()
    metrics = end_to_end(args.parent)
    if args.claim is not None and args.claim not in {m[0] for m in metrics}:
        ap.error(f"--claim {args.claim} is not an end-to-end metric")

    pairs, differ, compared = [], [], 0
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        out = {}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            try:
                out[side] = run_side(checkout, args.workload, seed,
                                     args.seconds)
            except RuntimeError as err:
                print(f"ab_perfbench: {err}", file=sys.stderr)
                return 1
            failed[side] += out[side][0]["failed"]
            attempted[side] += out[side][0]["attempted"]
        (_, p_det, p_end), (_, c_det, c_end) = out["parent"], out["change"]
        if p_end == c_end:
            compared += 1
            keys = sorted(k for k in set(p_det) | set(c_det)
                          if p_det.get(k) != c_det.get(k))
            if keys:
                differ.append((seed, keys))
        pairs.append((out["parent"][0]["metrics"], out["change"][0]["metrics"]))
        shown = args.claim or metrics[0][0]
        print(f"seed {seed} ({order[0]} first): {shown} "
              f"{fmt(pairs[-1][0][shown]['value'])} -> "
              f"{fmt(pairs[-1][1][shown]['value'])}", flush=True)

    n = len(pairs)
    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s, {n} pairs; parent | change: median "
          f"[q1, q3]; ratio = median of change/parent per pair")
    summaries = {}
    for name, unit, better in metrics:
        s = compare(pairs, name, better)
        summaries[name] = s
        p, c = s["parent"], s["change"]
        print(f"{name:<16} {unit:<6} {fmt(p[1])} [{fmt(p[0])}, {fmt(p[2])}]"
              f" | {fmt(c[1])} [{fmt(c[0])}, {fmt(c[2])}]  ratio "
              f"{s['ratio']:.3f}  wins {s['wins']}/{n}  ties {s['ties']}"
              f"  ({better} is better)")
    print(f"failed operations: parent {failed['parent']}/"
          f"{attempted['parent']}, change {failed['change']}/"
          f"{attempted['change']}")
    print(f"deterministic sections: {compared}/{n} pairs compared, "
          f"{len(differ)} differ" + ("" if compared == n else
          "; the others timed different operation counts on a workload "
          "with writes"))
    if args.claim is not None:
        ok, gap, iqr = claim_holds(summaries[args.claim], n)
        s = summaries[args.claim]
        print(f"claim {args.claim}: wins {s['wins']}/{n} (ties {s['ties']}),"
              f" median gap {fmt(gap)} against parent IQR {fmt(iqr)}: "
              f"{'MET' if ok else 'NOT MET'}")
    for seed, keys in differ:
        print(f"ab_perfbench: seed {seed}: deterministic sections differ "
              f"in {', '.join(keys)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
