#!/usr/bin/env python3
"""ctest tier1 fixture suite for ci/validate_bench.py, the schema gate every
BENCH_*.json perf snapshot passes through.

Seeded violations, each of which the validator must refuse with a non-zero
exit that names what is wrong:
  * a required field removed (top level, and inside one workload's timing);
  * a field of the wrong type (a string counter, a float rep count);
  * a bad schema version.
And the case it must pass: the committed BENCH_3.json, unedited.

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
VALIDATE = REPO / "ci" / "validate_bench.py"
SCHEMA = REPO / "ci" / "bench_schema.json"


def committed():
    return json.loads((REPO / "BENCH_3.json").read_text())


class ValidateBench(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def validate(self, document):
        path = self.dir / "candidate.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        return subprocess.run(
            [sys.executable, str(VALIDATE), str(path), str(SCHEMA)],
            capture_output=True, text=True, check=False)

    def assert_refused(self, document, *needles):
        proc = self.validate(document)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("INVALID", proc.stderr)
        for needle in needles:
            self.assertIn(needle, proc.stderr)

    def test_committed_snapshot_passes(self):
        proc = self.validate(committed())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("valid", proc.stdout)

    def test_missing_top_level_field_fails(self):
        document = committed()
        del document["iters"]
        self.assert_refused(document, "missing required key 'iters'")

    def test_missing_workload_field_fails(self):
        document = committed()
        del document["workloads"][1]["timing"]["warm_median_seconds"]
        self.assert_refused(document, "$.workloads[1].timing",
                            "'warm_median_seconds'")

    def test_string_counter_fails(self):
        document = committed()
        counters = document["workloads"][0]["metrics"]["counters"]
        counters["sim.phases"] = str(counters["sim.phases"])
        self.assert_refused(document, "sim.phases", "expected integer")

    def test_float_rep_count_fails(self):
        document = committed()
        document["reps"] = 5.0
        self.assert_refused(document, "$.reps", "expected integer")

    def test_bad_schema_version_fails(self):
        document = committed()
        document["schema_version"] = 2
        self.assert_refused(document, "$.schema_version", "expected 3")


if __name__ == "__main__":
    unittest.main()
