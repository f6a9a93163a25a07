#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/check.py [--seconds S] [--skip-build-guard]

It checks, on every workload:
  * guard rails: --help exits 0, a bad flag prints usage and exits 2, and a
    non-Release build refuses to measure (exit 3);
  * seeded violations: with --tamper, a corrupted pin (sort_rt) or tampered
    response fingerprints (svc_warm) count as failed ops, lower
    completed_fraction below 1 and make the command exit 1, while the same
    run untampered is correct with completed_fraction 1;
  * exact counts: the traced run's count metrics repeat bit for bit across
    two runs with one seed, and change with the seed where the inputs change
    the work (sort_rt's counts are data-independent, so they must not);
  * the traced runs are correct, and print every per-layer metric of
    BENCHMARK.json;
and it prints the tracing overhead: traced against untraced throughput.
Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["svc_warm", "sort_rt"]
# Workloads whose seed changes the counted work.
SEED_SENSITIVE = {"svc_warm"}

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench(*args, binary=None):
    """Runs the benchmark; returns (exit code, result or None, all output)."""
    command = [str(binary)] if binary else [sys.executable, str(HERE / "run.py")]
    proc = subprocess.run(command + [str(a) for a in args], cwd=ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def value(result, name):
    return result["metrics"][name]["value"]


def check_cli():
    code, _, out = bench("--help")
    expect(code == 0 and "usage:" in out, "--help exits 0 with usage")
    for args in (["--bogus", "1"], ["--workload", "nope"],
                 ["--workload", "sort_rt", "--seconds", "0"],
                 ["--workload", "sort_rt", "--trace", "2"],
                 ["--workload", "sort_rt", "--seed"]):
        code, result, out = bench(*args)
        expect(code == 2 and result is None and "usage:" in out,
               f"{' '.join(args)} prints usage and exits 2 (got {code})")


def check_build_guard():
    build = ROOT / ".bench_build" / "perfbench-relwithdebinfo"
    steps = [["cmake", "-S", str(HERE), "-B", str(build),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build), "-j", "4"]]
    for step in steps:
        if subprocess.run(step, capture_output=True).returncode != 0:
            expect(False, "RelWithDebInfo build of the benchmark")
            return
    code, result, out = bench("--workload", "sort_rt", "--seconds", "1",
                              binary=build / "perfbench")
    expect(code == 3 and result is None and "refusing" in out,
           f"a RelWithDebInfo build refuses to measure (exit {code})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--skip-build-guard", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    secs = ["--seconds", args.seconds]

    check_cli()
    overhead = []
    for workload in WORKLOADS:
        base = ["--workload", workload] + secs
        code, clean, _ = bench(*base, "--seed", 1)
        expect(code == 0 and clean is not None and clean["correct"]
               and clean["failed"] == 0
               and value(clean, "completed_fraction") == 1.0
               and sorted(clean["metrics"]) == sorted(e2e_names),
               f"{workload}: untampered run is correct, completed_fraction 1, "
               f"every end-to-end metric printed")
        code, bad, _ = bench(*base, "--seed", 1, "--tamper", 2)
        expect(code == 1 and bad is not None and not bad["correct"]
               and bad["failed"] >= 1
               and value(bad, "completed_fraction") < 1.0,
               f"{workload}: tampered run fails "
               f"({bad['failed'] if bad else '?'} failed ops) and exits 1")

        runs = [bench(*base, "--trace", 1, "--seed", seed)
                for seed in (1, 1, 2)]
        traced = [result for _, result, _ in runs]
        expect(all(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 for code, result, _ in runs),
               f"{workload}: traced runs are correct and exit 0 "
               f"(codes {[code for code, _, _ in runs]})")
        if any(t is None for t in traced):
            continue
        expect(sorted(traced[0]["metrics"]) == sorted(layer_names),
               f"{workload}: traced run prints every per-layer metric")
        counts = [{n: value(t, n) for n in count_names} for t in traced]
        expect(counts[0] == counts[1],
               f"{workload}: counts repeat exactly for one seed")
        if workload in SEED_SENSITIVE:
            expect(counts[0] != counts[2],
                   f"{workload}: counts change with the seed")
        else:
            expect(counts[0] == counts[2],
                   f"{workload}: counts are data-independent across seeds")
        if clean is not None:
            plain = value(clean, "throughput_per_s")
            with_spans = value(traced[0], "trace.throughput_per_s")
            overhead.append((workload, plain, with_spans))

    if not args.skip_build_guard:
        check_build_guard()

    print("\ntracing overhead (short runs; one sample each):")
    print(f"{'workload':10s} {'untraced/s':>12s} {'traced/s':>12s} {'overhead':>9s}")
    for workload, plain, with_spans in overhead:
        gap = 1.0 - with_spans / plain if plain else float("nan")
        print(f"{workload:10s} {plain:12.4g} {with_spans:12.4g} {gap:9.1%}")
    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
