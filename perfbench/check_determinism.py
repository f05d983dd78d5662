#!/usr/bin/env python3
"""Determinism check for the repository benchmark.

    python3 perfbench/check_determinism.py [--seed N] [WORKLOAD ...]

Runs each workload for exactly one pass over its schedule (--seconds 0)
three times: at LMK_THREADS=1 and twice at the machine's thread count.
The artifact's "deterministic" section (virtual-time metrics, counts,
result digests, set-up shape, checks) must be byte-identical across the
three runs. Exits 0 when every workload matches, 1 otherwise.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module: build + run helpers)


def deterministic_section(binary, workload, seed, threads):
    env = dict(os.environ, LMK_THREADS=str(threads))
    run.run_binary(binary, workload, seed, 0, 0, env=env)
    path = os.path.join(run.artifact_dir(), f"{workload}-seed{seed}.json")
    with open(path) as f:
        return json.dumps(json.load(f)["deterministic"], sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args()
    binary = run.build()
    nproc = os.cpu_count() or 1
    ok = True
    for w in args.workloads:
        sections = [deterministic_section(binary, w, args.seed, t)
                    for t in (1, nproc, nproc)]
        same = len(set(sections)) == 1
        ok = ok and same
        print(f"{w}: LMK_THREADS=1 vs {nproc} vs {nproc} (repeat): "
              f"{'identical' if same else 'DIFFERENT'}")
        if not same:
            for t, s in zip((1, nproc, nproc), sections):
                print(f"  threads={t}: {s}")
        else:
            print(f"  {sections[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
