#!/usr/bin/env python3
"""ctest tier1 fixture suite for the perf gate's build-configuration guard.

Seeded violations, each of which the gate must refuse:
  * ci/check_timing.py rejects a RelWithDebInfo candidate and a
    RelWithDebInfo baseline (timings from such a build are never gated);
  * `ci/check_timing.py --pin` refuses a RelWithDebInfo, a sanitized or a
    meta-less snapshot and leaves the baseline untouched, and pins a plain
    Release one;
  * `UPDATE_BASELINE=1 ci/perf_gate.sh`, driven end to end with a stub cmake
    and a stub perf_snapshot that emits a fixture snapshot, refuses to
    re-pin from a RelWithDebInfo or a sanitized snapshot and re-pins from a
    Release one.

Every fixture is the committed BENCH_3.json with its meta block rewritten,
written to a temporary directory; nothing in the repository is modified.
"""

import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(
    os.environ.get("HBSPK_SOURCE_DIR", pathlib.Path(__file__).parents[1])
).resolve()
CHECK_TIMING = REPO / "ci" / "check_timing.py"
PERF_GATE = REPO / "ci" / "perf_gate.sh"
TRACE_FIXTURE = REPO / "tests" / "golden" / "fig3a_trace.json"


def snapshot_with(directory, name, meta):
    """The committed snapshot with `meta` replaced (None removes it)."""
    document = json.loads((REPO / "BENCH_3.json").read_text())
    if meta is None:
        document.pop("meta", None)
    else:
        document["meta"] = meta
    path = pathlib.Path(directory) / name
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


RELEASE = {"build_type": "Release", "sanitizer": ""}
RELWITHDEBINFO = {"build_type": "RelWithDebInfo", "sanitizer": ""}
TSAN = {"build_type": "Release", "sanitizer": "thread"}


def check_timing(*args):
    return subprocess.run([sys.executable, str(CHECK_TIMING), *map(str, args)],
                          capture_output=True, text=True, check=False)


class TimingGuard(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_release_candidate_passes_against_release_baseline(self):
        candidate = snapshot_with(self.dir, "candidate.json", RELEASE)
        baseline = snapshot_with(self.dir, "baseline.json", RELEASE)
        proc = check_timing(candidate, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_relwithdebinfo_baseline_is_rejected(self):
        candidate = snapshot_with(self.dir, "candidate.json", RELEASE)
        baseline = snapshot_with(self.dir, "baseline.json", RELWITHDEBINFO)
        proc = check_timing(candidate, baseline)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("build_type='RelWithDebInfo'", proc.stderr)

    def test_relwithdebinfo_candidate_is_rejected(self):
        candidate = snapshot_with(self.dir, "candidate.json", RELWITHDEBINFO)
        proc = check_timing(candidate)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("refusing to gate", proc.stderr)


class PinGuard(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.baseline = self.dir / "BENCH_pinned.json"
        self.baseline.write_text("untouched\n")

    def tearDown(self):
        self.tmp.cleanup()

    def test_refuses_unfit_snapshots_and_leaves_the_baseline(self):
        for name, meta in (("relwithdebinfo", RELWITHDEBINFO),
                           ("tsan", TSAN), ("no_meta", None)):
            with self.subTest(snapshot=name):
                snapshot = snapshot_with(self.dir, name + ".json", meta)
                proc = check_timing("--pin", snapshot, self.baseline)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("refusing to pin", proc.stderr)
                self.assertEqual(self.baseline.read_text(), "untouched\n")
                self.assertTrue(snapshot.exists())

    def test_pins_a_release_snapshot(self):
        snapshot = snapshot_with(self.dir, "release.json", RELEASE)
        expected = snapshot.read_text()
        proc = check_timing("--pin", snapshot, self.baseline)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.baseline.read_text(), expected)


class PerfGateRepin(unittest.TestCase):
    """UPDATE_BASELINE=1 ci/perf_gate.sh end to end, minus the build: a stub
    cmake does nothing and a stub perf_snapshot copies a fixture snapshot
    (and a valid trace) to the paths the gate asks for."""

    def run_gate(self, meta):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        root = pathlib.Path(tmp.name)
        fixture = snapshot_with(root, "fixture.json", meta)
        stubs = root / "stubs"
        (root / "build" / "bench").mkdir(parents=True)
        stubs.mkdir()
        cmake = stubs / "cmake"
        cmake.write_text("#!/bin/sh\nexit 0\n")
        snapshot_bin = root / "build" / "bench" / "perf_snapshot"
        snapshot_bin.write_text(
            f"#!{sys.executable}\n"
            "import shutil, sys\n"
            "args = sys.argv[1:]\n"
            f"shutil.copy({str(fixture)!r}, args[args.index('--out') + 1])\n"
            "if '--trace-out' in args:\n"
            f"    shutil.copy({str(TRACE_FIXTURE)!r},\n"
            "                args[args.index('--trace-out') + 1])\n")
        for path in (cmake, snapshot_bin):
            path.chmod(path.stat().st_mode | stat.S_IXUSR)
        baseline = root / "BENCH_pinned.json"
        baseline.write_text("untouched\n")
        env = dict(os.environ,
                   PATH=f"{stubs}{os.pathsep}{os.environ.get('PATH', '')}",
                   UPDATE_BASELINE="1", JOBS="1",
                   BUILD_DIR=str(root / "build"), BASELINE=str(baseline))
        proc = subprocess.run(["bash", str(PERF_GATE)], env=env,
                              capture_output=True, text=True, check=False)
        return proc, baseline, fixture

    def test_refuses_to_repin_from_relwithdebinfo(self):
        proc, baseline, _ = self.run_gate(RELWITHDEBINFO)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(baseline.read_text(), "untouched\n")

    def test_refuses_to_repin_from_a_sanitized_build(self):
        proc, baseline, _ = self.run_gate(TSAN)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(baseline.read_text(), "untouched\n")

    def test_repins_from_release(self):
        proc, baseline, fixture = self.run_gate(RELEASE)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(baseline.read_text(), fixture.read_text())


if __name__ == "__main__":
    unittest.main()
