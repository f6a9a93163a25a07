#!/usr/bin/env python3
"""ctest tier1 fixture suite for ci/diff_bench_counters.py, the perf gate's
exact counter check.

Seeded violations, each of which the check must refuse with a non-zero exit
that names what drifted:
  * one counter changed by 1;
  * one counter missing from the candidate;
  * one workload missing from the candidate.
And the cases it must pass: identical snapshots, and snapshots that differ
only in wall time, gauges and histograms (machine-dependent, never gated).

Every fixture is the committed BENCH_3.json, possibly edited, written to a
temporary directory; nothing in the repository is modified.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(
    os.environ.get("HBSPK_SOURCE_DIR", pathlib.Path(__file__).parents[1])
).resolve()
DIFF = REPO / "ci" / "diff_bench_counters.py"


def committed():
    return json.loads((REPO / "BENCH_3.json").read_text())


def workload(document, name):
    return next(w for w in document["workloads"] if w["name"] == name)


class DiffBenchCounters(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.baseline = self.write("baseline.json", committed())

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, document):
        path = self.dir / name
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    def diff(self, candidate):
        return subprocess.run(
            [sys.executable, str(DIFF), str(self.baseline), str(candidate)],
            capture_output=True, text=True, check=False)

    def test_identical_snapshots_pass(self):
        proc = self.diff(self.write("candidate.json", committed()))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_timing_gauge_and_histogram_changes_pass(self):
        document = committed()
        for w in document["workloads"]:
            w["wall_seconds"] = 2.0 * w["wall_seconds"] + 1.0
            for key in w["metrics"]["gauges"]:
                w["metrics"]["gauges"][key] = -1.0
            w["metrics"]["histograms"] = {}
        proc = self.diff(self.write("candidate.json", document))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_counter_off_by_one_fails_and_is_named(self):
        document = committed()
        counters = workload(document, "service")["metrics"]["counters"]
        counters["svc.completed"] += 1
        proc = self.diff(self.write("candidate.json", document))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("workload 'service': counter drift", proc.stdout)
        self.assertIn("svc.completed", proc.stdout)

    def test_missing_counter_fails_and_is_named(self):
        document = committed()
        del workload(document, "fig3a")["metrics"]["counters"]["plancache.misses"]
        proc = self.diff(self.write("candidate.json", document))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("workload 'fig3a': counter drift", proc.stdout)
        self.assertIn("plancache.misses", proc.stdout)

    def test_missing_workload_fails_and_is_named(self):
        document = committed()
        document["workloads"] = [
            w for w in document["workloads"] if w["name"] != "chaos"]
        proc = self.diff(self.write("candidate.json", document))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("workload 'chaos'", proc.stdout)


if __name__ == "__main__":
    unittest.main()
