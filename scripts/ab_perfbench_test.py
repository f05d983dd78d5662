#!/usr/bin/env python3
"""Tests for scripts/ab_perfbench.py, the two-checkout benchmark A/B.

Each test builds two fake checkouts whose perfbench/run.py replays
canned results (per seed: metrics, deterministic section, exit code)
and logs the order the sides ran in, then runs ab_perfbench.py on them
as a subprocess and asserts on its exit code and output.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "ab_perfbench.py")

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]}

# Replays canned.json from the checkout root: writes the artifact under
# $CARGO_TARGET_DIR and prints the result line, as perfbench/run.py does.
STUB = r'''
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = args["--seed"]
with open(os.path.join(os.path.dirname(root), "order.log"), "a") as log:
    log.write(f"{os.path.basename(root)} {seed}\n")
run = json.load(open(os.path.join(root, "canned.json")))[seed]
if run.get("exit", 0):
    sys.stderr.write("perfbench: build step failed\n")
    sys.exit(run["exit"])
out = os.path.join(os.environ["CARGO_TARGET_DIR"], "perfbench-artifacts")
os.makedirs(out, exist_ok=True)
name = f"{args['--workload']}-seed{seed}.json"
json.dump({"deterministic": run["deterministic"],
           "config": {"scale": {"write_share": run.get("write_share", 0)}},
           "wallclock": {"ops_timed": run.get("ops_timed", 10)}},
          open(os.path.join(out, name), "w"))
metrics = {k: {"value": v, "unit": "x"} for k, v in run["metrics"].items()}
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": metrics}))
'''


class AbPerfbenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def checkout(self, name, runs):
        """A fake checkout replaying `runs`: {seed: (setup_s, ops_per_s)}
        or {seed: dict} for a full canned run."""
        root = os.path.join(self.tmp.name, name)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f)
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(STUB)
        canned = {}
        for seed, run in runs.items():
            if isinstance(run, tuple):
                run = {"metrics": {"setup_s": run[0], "ops_per_s": run[1]},
                       "deterministic": {"digest": "d1", "migrations": 7}}
            canned[str(seed)] = run
        with open(os.path.join(root, "canned.json"), "w") as f:
            json.dump(canned, f)
        return root

    def run_ab(self, parent, change, seeds, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, parent, change, "--workload", "w",
             "--seeds", seeds, "--seconds", "0", *extra],
            capture_output=True, text=True, check=False)

    def order(self):
        with open(os.path.join(self.tmp.name, "order.log")) as f:
            return [line.split() for line in f.read().splitlines()]

    def test_clear_gain_meets_claim(self):
        parent = self.checkout("parent", {s: (1.0 + 0.01 * s, 100.0)
                                          for s in range(1, 11)})
        change = self.checkout("change", {s: (0.6 + 0.01 * s, 100.0)
                                          for s in range(1, 11)})
        proc = self.run_ab(parent, change, "1-10", "--claim", "setup_s")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("claim setup_s: wins 10/10 (ties 0)", proc.stdout)
        self.assertIn(": MET", proc.stdout)
        self.assertIn("ratio 0.", proc.stdout)
        # ops_per_s is identical in every pair: ten ties, no wins.
        self.assertRegex(proc.stdout, r"ops_per_s .*wins 0/10  ties 10")

    def test_sides_alternate_and_build_apart(self):
        parent = self.checkout("parent", {s: (1.0, 100.0) for s in (3, 4)})
        change = self.checkout("change", {s: (1.0, 100.0) for s in (3, 4)})
        proc = self.run_ab(parent, change, "3-4")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(self.order(), [["change", "3"], ["parent", "3"],
                                        ["parent", "4"], ["change", "4"]])
        for root in (parent, change):
            self.assertTrue(os.path.exists(os.path.join(
                root, ".bench_build", "perfbench-artifacts", "w-seed4.json")))

    def test_eight_wins_do_not_meet_claim(self):
        par = {s: (1.0, 100.0) for s in range(1, 11)}
        chg = {s: (0.5 if s <= 8 else 1.5, 100.0) for s in range(1, 11)}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-10",
                           "--claim", "setup_s")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("wins 8/10 (ties 0)", proc.stdout)
        self.assertIn("NOT MET", proc.stdout)

    def test_ties_count_for_neither_side(self):
        par = {s: (1.0, 100.0) for s in range(1, 11)}
        nine = {s: (0.5 if s <= 9 else 1.0, 100.0) for s in range(1, 11)}
        eight = {s: (0.5 if s <= 8 else 1.0, 100.0) for s in range(1, 11)}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", nine), "1-10",
                           "--claim", "setup_s")
        self.assertIn("wins 9/10 (ties 1)", proc.stdout)
        self.assertIn(": MET", proc.stdout)
        proc = self.run_ab(self.checkout("parent2", par),
                           self.checkout("change2", eight), "1-10",
                           "--claim", "setup_s")
        self.assertIn("wins 8/10 (ties 2)", proc.stdout)
        self.assertIn("NOT MET", proc.stdout)

    def test_gap_within_parent_spread_does_not_meet_claim(self):
        # The change wins every pair by 0.01, but the parent's own runs
        # spread over 1.0-1.9: quartile distance 0.45.
        par = {s: (1.0 + 0.1 * (s - 1), 100.0) for s in range(1, 11)}
        chg = {s: (0.99 + 0.1 * (s - 1), 100.0) for s in range(1, 11)}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-10",
                           "--claim", "setup_s")
        self.assertIn("wins 10/10", proc.stdout)
        self.assertIn("against parent IQR 0.45", proc.stdout)
        self.assertIn("NOT MET", proc.stdout)

    def test_higher_is_better_direction(self):
        par = {s: (1.0, 100.0) for s in range(1, 11)}
        chg = {s: (1.0, 150.0 + s) for s in range(1, 11)}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-10",
                           "--claim", "ops_per_s")
        self.assertIn("claim ops_per_s: wins 10/10", proc.stdout)
        self.assertIn(": MET", proc.stdout)

    def test_deterministic_difference_fails(self):
        par = {s: (1.0, 100.0) for s in (1, 2)}
        chg = dict(par)
        chg[2] = {"metrics": {"setup_s": 0.5, "ops_per_s": 100.0},
                  "deterministic": {"digest": "d2", "migrations": 7}}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-2")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("seed 2: deterministic sections differ in digest",
                      proc.stderr)

    def test_writes_compare_only_equal_timed_op_counts(self):
        # A workload with writes verifies the corpus its timed window
        # left: seed 1's sides timed different op counts, so their
        # different verify digests are not compared; seed 2's timed the
        # same count, so its difference fails the run.
        def run(digest, ops):
            return {"metrics": {"setup_s": 1.0, "ops_per_s": 100.0},
                    "deterministic": {"verify_digest": digest},
                    "write_share": 0.1, "ops_timed": ops}
        par = {1: run("a", 400), 2: run("a", 400)}
        chg = {1: run("b", 500), 2: run("a", 400)}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-2")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("deterministic sections: 1/2 pairs compared, 0 differ",
                      proc.stdout)
        chg[2] = run("b", 400)
        proc = self.run_ab(self.checkout("parent2", par),
                           self.checkout("change2", chg), "1-2")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("seed 2: deterministic sections differ in verify_digest",
                      proc.stderr)
        self.assertNotIn("seed 1:", proc.stderr)

    def test_read_only_workload_compares_every_pair(self):
        # Without writes the end state does not depend on how long the
        # window ran, so sections are compared whatever the op counts.
        par = {1: {"metrics": {"setup_s": 1.0, "ops_per_s": 100.0},
                   "deterministic": {"digest": "a"}, "ops_timed": 400}}
        chg = {1: {"metrics": {"setup_s": 1.0, "ops_per_s": 100.0},
                   "deterministic": {"digest": "b"}, "ops_timed": 500}}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("1/1 pairs compared, 1 differ", proc.stdout)

    def test_failed_run_fails(self):
        par = {s: (1.0, 100.0) for s in (1, 2)}
        chg = dict(par)
        chg[1] = {"exit": 2}
        proc = self.run_ab(self.checkout("parent", par),
                           self.checkout("change", chg), "1-2")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("exited with 2", proc.stderr)
        self.assertIn("build step failed", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_unknown_claim_metric_is_rejected(self):
        par = self.checkout("parent", {1: (1.0, 100.0)})
        proc = self.run_ab(par, par, "1", "--claim", "nope")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("not an end-to-end metric", proc.stderr)


if __name__ == "__main__":
    unittest.main()
