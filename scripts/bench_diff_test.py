#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py, the flagship deterministic gate.

Runs bench_diff.py as a subprocess (the way check.sh invokes it) and
asserts on exit codes and messages: each ceiling and the recall floor
must fail the gate, and malformed input must produce a one-line
readable error (never a traceback).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def flagship_doc(p99=800.0, wire=5000000.0, recall=0.95, scanned=70.0):
    """A minimal well-formed BENCH_flagship.json document."""
    return {
        "scale": {"nodes": 256, "objects": 20000},
        "deterministic": {
            "latency_ms": {"p99": p99},
            "wire": {"total_bytes": wire},
            "recall": {"sampled": 25, "mean": recall},
            "scanned_per_subquery": scanned,
        },
    }


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

    def run_flagship(self, baseline, current):
        return subprocess.run(
            [sys.executable, SCRIPT, "--flagship-baseline", baseline,
             "--flagship", current],
            capture_output=True, text=True, check=False)

    def assert_readable_failure(self, proc, needle):
        combined = proc.stdout + proc.stderr
        self.assertNotEqual(proc.returncode, 0, combined)
        self.assertNotIn("Traceback", combined)
        self.assertIn(needle, combined)

    def test_flagship_matching_runs_pass(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc())
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench_diff: OK", proc.stdout)

    def test_flagship_p99_ceiling_fails(self):
        base = self.write("fbase.json", flagship_doc(p99=800.0))
        cur = self.write("fcur.json", flagship_doc(p99=900.0))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "p99 latency grew")

    def test_flagship_wire_ceiling_fails(self):
        base = self.write("fbase.json", flagship_doc(wire=5000000.0))
        cur = self.write("fcur.json", flagship_doc(wire=5600000.0))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "wire bytes grew")

    def test_flagship_recall_floor_fails(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc(recall=0.62))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "recall 0.620 fell below")

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

    def test_missing_file_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        missing = os.path.join(self.tmp.name, "nope.json")
        proc = self.run_flagship(base, missing)
        self.assert_readable_failure(proc, "cannot read")

    def test_invalid_json_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", "{not json")
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "cannot read")

    def test_missing_deterministic_section_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", {"scale": {}})
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "no \"deterministic\" section")

    def test_missing_metric_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc()
        del doc["deterministic"]["wire"]["total_bytes"]
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "missing \"wire.total_bytes\"")

    def test_non_numeric_metric_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc()
        doc["deterministic"]["latency_ms"]["p99"] = "fast"
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "is not a number")


if __name__ == "__main__":
    unittest.main()
