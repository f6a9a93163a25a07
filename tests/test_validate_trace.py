#!/usr/bin/env python3
"""ctest tier1 fixture suite for ci/validate_trace.py, the gate every
exported Chrome trace passes through.

Seeded violations, each of which the validator must refuse with a non-zero
exit that names what is wrong:
  * two track names swapped, so the tracks are no longer sorted;
  * a span id that is not the span's position among span events;
  * a parent link to a span that does not exist, and one to the span itself.
And the case it must pass: the committed golden, unedited.

Every fixture is tests/golden/fig3a_trace.json, possibly edited, written to
a temporary directory; nothing in the repository is modified.
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
VALIDATE = REPO / "ci" / "validate_trace.py"
GOLDEN = REPO / "tests" / "golden" / "fig3a_trace.json"


def golden():
    return json.loads(GOLDEN.read_text())


def tracks(document):
    return [e for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"]


def spans(document):
    return [e for e in document["traceEvents"] if e["ph"] == "X"]


class ValidateTrace(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def validate(self, document):
        path = self.dir / "trace.json"
        path.write_text(json.dumps(document, indent=1) + "\n")
        return subprocess.run(
            [sys.executable, str(VALIDATE), str(path)],
            capture_output=True, text=True, check=False)

    def assert_refused(self, document, reason):
        proc = self.validate(document)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("INVALID", proc.stderr)
        self.assertIn(reason, proc.stderr)

    def test_golden_passes(self):
        proc = self.validate(golden())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("valid (90 spans", proc.stdout)

    def test_unsorted_tracks_fail(self):
        document = golden()
        first, second = tracks(document)[:2]
        first["args"]["name"], second["args"]["name"] = (
            second["args"]["name"], first["args"]["name"])
        self.assert_refused(document, "track names are not sorted")

    def test_non_canonical_span_id_fails(self):
        document = golden()
        spans(document)[3]["args"]["id"] = 4
        self.assert_refused(document, "id 4 != position 3")

    def test_dangling_parent_fails(self):
        document = golden()
        all_spans = spans(document)
        child = next(e for e in all_spans if "parent" in e["args"])
        child["args"]["parent"] = len(all_spans)
        self.assert_refused(document, "does not reference another span")

    def test_self_parent_fails(self):
        document = golden()
        child = next(e for e in spans(document) if "parent" in e["args"])
        child["args"]["parent"] = child["args"]["id"]
        self.assert_refused(document, "does not reference another span")


if __name__ == "__main__":
    unittest.main()
