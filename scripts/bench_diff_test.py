#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py error handling and the alloc gate.

Runs bench_diff.py as a subprocess (the way CI and check.sh invoke it)
and asserts on exit codes and messages: malformed input must produce a
one-line readable error (never a traceback), and the zero-allocation
hard gate must fail even under --warn-only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def perf_doc(alloc=None):
    """A minimal well-formed BENCH_perf.json document."""
    doc = {
        "online": {
            "engine_events_per_sec": 1000000.0,
            "queries_per_sec": 50.0,
            "scanned_per_subquery": 10.0,
        },
    }
    if alloc is not None:
        doc["alloc"] = alloc
    return doc


def flagship_doc(recall=0.95, scanned=70.0):
    """A minimal well-formed BENCH_flagship.json document."""
    doc = {
        "scale": {"nodes": 256, "objects": 20000},
        "deterministic": {
            "latency_ms": {"p99": 800.0},
            "wire": {"total_bytes": 5000000.0},
            "recall": {"sampled": 25, "mean": recall},
            "scanned_per_subquery": scanned,
        },
    }
    return doc


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f)
        return path

    def run_diff(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--baseline", baseline,
             "--current", current, *extra],
            capture_output=True, text=True, check=False)

    def assert_readable_failure(self, proc, needle):
        combined = proc.stdout + proc.stderr
        self.assertNotEqual(proc.returncode, 0, combined)
        self.assertNotIn("Traceback", combined)
        self.assertIn(needle, combined)

    def test_matching_runs_pass(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", perf_doc())
        proc = self.run_diff(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench_diff: OK", proc.stdout)

    def test_missing_file_is_readable(self):
        base = self.write("base.json", perf_doc())
        missing = os.path.join(self.tmp.name, "nope.json")
        proc = self.run_diff(base, missing)
        self.assert_readable_failure(proc, "cannot read")

    def test_invalid_json_is_readable(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", "{not json")
        proc = self.run_diff(base, cur)
        self.assert_readable_failure(proc, "cannot read")

    def test_missing_online_section_is_readable(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", {"sweep": {}})
        proc = self.run_diff(base, cur)
        self.assert_readable_failure(proc, "no \"online\" section")

    def test_missing_metric_is_readable(self):
        base = self.write("base.json", perf_doc())
        doc = perf_doc()
        del doc["online"]["engine_events_per_sec"]
        cur = self.write("cur.json", doc)
        proc = self.run_diff(base, cur)
        self.assert_readable_failure(proc, "engine_events_per_sec")

    def test_non_numeric_metric_is_readable(self):
        base = self.write("base.json", perf_doc())
        doc = perf_doc()
        doc["online"]["queries_per_sec"] = "fast"
        cur = self.write("cur.json", doc)
        proc = self.run_diff(base, cur)
        self.assert_readable_failure(proc, "is not a number")

    def test_alloc_gate_passes_on_zero_steady_state(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", perf_doc(alloc={
            "guard_enabled": True,
            "engine_warmup": {"allocs": 123, "frees": 4,
                              "alloc_bytes": 9000, "free_bytes": 100},
            "engine_steady_state": {"allocs": 0, "frees": 0,
                                    "alloc_bytes": 0, "free_bytes": 0},
        }))
        proc = self.run_diff(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("alloc gate OK", proc.stdout)

    def test_alloc_gate_fails_hard_even_with_warn_only(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", perf_doc(alloc={
            "guard_enabled": True,
            "engine_warmup": {"allocs": 123, "frees": 4,
                              "alloc_bytes": 9000, "free_bytes": 100},
            "engine_steady_state": {"allocs": 7, "frees": 7,
                                    "alloc_bytes": 448,
                                    "free_bytes": 448},
        }))
        proc = self.run_diff(base, cur, "--warn-only")
        self.assert_readable_failure(proc, "HARD FAILURE")
        self.assertIn("allocation-free", proc.stderr)

    def test_alloc_gate_skipped_when_guard_disabled(self):
        base = self.write("base.json", perf_doc())
        cur = self.write("cur.json", perf_doc(alloc={
            "guard_enabled": False,
            "engine_warmup": {"allocs": 0, "frees": 0,
                              "alloc_bytes": 0, "free_bytes": 0},
            "engine_steady_state": {"allocs": 0, "frees": 0,
                                    "alloc_bytes": 0, "free_bytes": 0},
        }))
        proc = self.run_diff(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("alloc gate skipped", proc.stdout)

    def run_flagship(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--flagship-only",
             "--flagship-baseline", baseline, "--flagship", current,
             *extra],
            capture_output=True, text=True, check=False)

    def test_flagship_matching_runs_pass(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc())
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench_diff: OK", proc.stdout)

    def test_flagship_recall_floor_fails(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc(recall=0.62))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "recall 0.620 fell below")

    def test_flagship_recall_floor_is_tunable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc(recall=0.62))
        proc = self.run_flagship(base, cur, "--flagship-recall-floor",
                                 "0.5")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_flagship_scan_ceiling_fails(self):
        base = self.write("fbase.json", flagship_doc(scanned=70.0))
        cur = self.write("fcur.json", flagship_doc(scanned=700.0))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "scanned/subquery grew")

    def test_flagship_gates_skip_on_scale_mismatch(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc(recall=0.1, scanned=9999.0)
        doc["scale"]["nodes"] = 10000
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("scale mismatch", proc.stdout)

    def test_soft_regression_respects_warn_only(self):
        base = self.write("base.json", perf_doc())
        doc = perf_doc()
        doc["online"]["engine_events_per_sec"] = 1000.0  # 1000x slower
        cur = self.write("cur.json", doc)
        self.assertNotEqual(self.run_diff(base, cur).returncode, 0)
        proc = self.run_diff(base, cur, "--warn-only")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)


if __name__ == "__main__":
    unittest.main()
