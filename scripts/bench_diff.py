#!/usr/bin/env python3
"""Deterministic regression gate for the flagship open-loop scenario.

Compares the "deterministic" section of a fresh BENCH_flagship.json
(produced by bench_flagship) against the committed baseline
(bench/BENCH_flagship.baseline.json) and exits nonzero when:

  * p99 response latency grew by more than 10%;
  * total bytes on the wire grew by more than 10%;
  * recall@10 (the sampled-oracle mean) fell below 0.90 — an absolute
    floor, not a ratio, so a local-store or refinement change cannot
    silently trade recall for speed;
  * scanned entries per subquery grew by more than 50%.

All four numbers come from virtual time and exact counters, so they are
the same on every machine and at every LMK_THREADS: a violation is a
behaviour change, never noise.

The gates are scale-matched: when the run's "scale" section differs
from the baseline's (e.g. an LMK_FULL run against the committed smoke
baseline), they are skipped with a note, since deterministic numbers
are only comparable at identical scale.

Malformed input (a missing or unreadable file, invalid JSON, a missing
"deterministic" section or gated metric, a non-numeric value) exits
nonzero with a one-line "bench_diff: <path>: ..." message — never a
Python traceback.
"""

import argparse
import json
import sys

# (label, path inside "deterministic", allowed current/baseline ratio)
CEILINGS = [
    ("p99 latency", ("latency_ms", "p99"), 1.10),
    ("wire bytes", ("wire", "total_bytes"), 1.10),
    ("scanned/subquery", ("scanned_per_subquery",), 1.50),
]
RECALL_FLOOR = 0.90


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("deterministic"),
                                                   dict):
        sys.exit(f"bench_diff: {path} has no \"deterministic\" section")
    return doc


def metric(doc, path, keys):
    """The number at deterministic.<keys>; a readable exit when it is
    absent or not a number."""
    name = ".".join(keys)
    val = doc["deterministic"]
    for key in keys:
        if not isinstance(val, dict) or key not in val:
            sys.exit(f"bench_diff: {path}: missing \"{name}\"")
        val = val[key]
    try:
        return float(val)
    except (TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: \"{name}\" is not a number "
                 f"(got {val!r})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flagship-baseline",
                    default="bench/BENCH_flagship.baseline.json")
    ap.add_argument("--flagship", default="BENCH_flagship.json",
                    help="current flagship run")
    args = ap.parse_args()

    base_doc = load(args.flagship_baseline)
    cur_doc = load(args.flagship)

    base_scale = base_doc.get("scale", {})
    cur_scale = cur_doc.get("scale", {})
    if base_scale != cur_scale:
        diff = {k for k in set(base_scale) | set(cur_scale)
                if base_scale.get(k) != cur_scale.get(k)}
        print(f"bench_diff: flagship gates skipped — scale mismatch vs "
              f"baseline ({', '.join(sorted(diff))}); deterministic "
              f"numbers are only comparable at identical scale")
        return 0

    failures = []
    for label, keys, ceiling in CEILINGS:
        base = metric(base_doc, args.flagship_baseline, keys)
        cur = metric(cur_doc, args.flagship, keys)
        if base <= 0:
            sys.exit(f"bench_diff: {args.flagship_baseline}: "
                     f"\"{'.'.join(keys)}\" is not positive")
        growth = cur / base
        print(f"bench_diff: flagship {label} {cur:,.2f} vs baseline "
              f"{base:,.2f} ({growth:.2f}x, ceiling {ceiling:.2f}x)")
        if growth > ceiling:
            failures.append(f"flagship {label} grew {growth:.2f}x over "
                            f"baseline (ceiling {ceiling:.2f}x)")

    recall = metric(cur_doc, args.flagship, ("recall", "mean"))
    print(f"bench_diff: flagship recall {recall:.3f} "
          f"(floor {RECALL_FLOOR:.2f})")
    if recall < RECALL_FLOOR:
        failures.append(f"flagship recall {recall:.3f} fell below the "
                        f"{RECALL_FLOOR:.2f} floor")

    for msg in failures:
        print(f"bench_diff: REGRESSION — {msg}", file=sys.stderr)
    if failures:
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
