#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the program from ../src) under the build root:
$CARGO_TARGET_DIR when set, else .bench_build/. Build logs and run
artifacts (effective configuration, deterministic section, Chrome trace,
self-time table) stay under the build root. The last line of standard
output is the JSON result; any failure exits non-zero without printing
one.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("topk-recall", "balanced-range", "mixed-rw")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def run_group(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout kill the whole
    group (make and compilers included) and wait for it, then raise."""
    p = subprocess.Popen(cmd, preexec_fn=os.setpgrp, **kwargs)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    broot = build_root()
    bdir = os.path.join(broot, "perfbench")
    tmp = os.path.join(broot, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(broot, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "lmk_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # One build at a time per build root: concurrent runs wait here.
    with open(os.path.join(broot, "perfbench-build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            rc = run_group(cmd, stdout=log, stderr=subprocess.STDOUT,
                           env=env, timeout=BUILD_TIMEOUT_S)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError(
                    f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(bdir, "lmk_perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout is not
    always a git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def artifact_dir():
    path = os.path.join(build_root(), "perfbench-artifacts")
    os.makedirs(path, exist_ok=True)
    return path


def check_metrics(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's, with its units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(got.items()) ^ set(want.items()))}")


def run_binary(binary, workload, seed, seconds, trace, env=None):
    """Run one workload; return (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", artifact_dir(), "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise RuntimeError(f"benchmark exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
        lines, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
        check_metrics(result, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
