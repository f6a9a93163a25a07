#!/usr/bin/env python3
"""Gate the wall-time half of a BENCH_*.json perf snapshot.

Three checks over the snapshot (schema v3):

0. Build-configuration guard: a snapshot whose "meta" block reports a
   non-Release build or an active sanitizer is refused outright — its
   timings are meaningless and must never be gated (or worse, pinned as a
   baseline). Snapshots without a meta block (schema <= 2) predate the
   stamp and are accepted as legacy.

1. Warm-cache speedup (always, needs reps >= 2): for the cache-heavy sweep
   workloads the warm-cache median must be at least 25% faster than the cold
   pass (warm_median <= 0.75 * cold). This is the scenario-throughput layer's
   acceptance criterion; it is machine-independent because both numbers come
   from the same process on the same machine.

2. Non-regression vs a baseline snapshot (when one is given): each
   workload's warm_median must stay within PERF_GATE_RATIO (default 1.5x) of
   the baseline's. The ratio is deliberately generous — CI machines vary —
   while counters are exact-matched separately by diff_bench_counters.py.
   A baseline without timing fields (schema v1) skips this check.

Usage: ci/check_timing.py CANDIDATE.json [BASELINE.json]
Exit 0 when every check passes, 1 otherwise.

Re-pin mode, used by `UPDATE_BASELINE=1 ci/perf_gate.sh`:

    ci/check_timing.py --pin SNAPSHOT.json BASELINE.json

moves SNAPSHOT over BASELINE only if check 0 accepts it: a non-Release or
sanitized snapshot is refused (exit 1) and BASELINE is left untouched.
"""

import json
import os
import shutil
import sys

# Workloads whose warm reps run almost entirely from the plan/scenario
# caches; the others (micro loops, resilience) are legitimately cache-light.
# "service" qualifies: warm load runs replan and re-simulate nothing.
CACHED_WORKLOADS = ("fig3a", "fig4a", "chaos", "service")
WARM_OVER_COLD_MAX = 0.75
DEFAULT_RATIO = 1.5


def load(path):
    with open(path) as f:
        return json.load(f)


def timings_by_workload(document):
    return {w["name"]: w.get("timing") for w in document["workloads"]}


def refuse_ungateable(path, document):
    """Returns True when the snapshot's build configuration disqualifies its
    timings. Missing meta (schema <= 2) is tolerated as legacy."""
    meta = document.get("meta")
    if meta is None:
        print(f"{path}: no meta block (schema <= 2 snapshot), "
              "build-configuration guard skipped")
        return False
    build_type = meta.get("build_type", "unknown")
    sanitizer = meta.get("sanitizer", "")
    if build_type != "Release" or sanitizer != "":
        print(f"{path}: refusing to gate timings from build_type="
              f"'{build_type}' sanitizer='{sanitizer}' "
              "(need a plain Release build)", file=sys.stderr)
        return True
    return False


def pin(snapshot, baseline):
    document = load(snapshot)
    if document.get("meta") is None or refuse_ungateable(snapshot, document):
        print(f"refusing to pin {snapshot} as {baseline}: a baseline must "
              "come from a plain Release build", file=sys.stderr)
        return 1
    shutil.move(snapshot, baseline)
    print(f"baseline re-pinned: {baseline} (review the diff and commit)")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--pin":
        return pin(argv[2], argv[3])
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    candidate_doc = load(argv[1])
    if refuse_ungateable(argv[1], candidate_doc):
        return 1
    candidate = timings_by_workload(candidate_doc)
    failed = False

    for name in CACHED_WORKLOADS:
        timing = candidate.get(name)
        if timing is None:
            print(f"{name}: no timing object in {argv[1]}")
            failed = True
            continue
        if timing["reps"] < 2:
            print(f"{name}: reps={timing['reps']} < 2, warm-vs-cold skipped")
            continue
        cold, warm = timing["cold_seconds"], timing["warm_median_seconds"]
        bound = WARM_OVER_COLD_MAX * cold
        verdict = "ok" if warm <= bound else "FAIL"
        print(f"{name}: warm {warm:.6f}s vs cold {cold:.6f}s "
              f"(need <= {bound:.6f}s) {verdict}")
        if warm > bound:
            failed = True

    if len(argv) == 3:
        baseline_doc = load(argv[2])
        if refuse_ungateable(argv[2], baseline_doc):
            return 1
        baseline = timings_by_workload(baseline_doc)
        ratio = float(os.environ.get("PERF_GATE_RATIO", DEFAULT_RATIO))
        if any(t is None for t in baseline.values()):
            print(f"baseline {argv[2]} predates timing fields; "
                  "non-regression check skipped")
        else:
            for name in sorted(candidate):
                if candidate[name] is None or name not in baseline:
                    continue
                old = baseline[name]["warm_median_seconds"]
                new = candidate[name]["warm_median_seconds"]
                bound = ratio * old
                verdict = "ok" if new <= bound else "FAIL"
                print(f"{name}: warm {new:.6f}s vs baseline {old:.6f}s "
                      f"(need <= {ratio:.2f}x = {bound:.6f}s) {verdict}")
                if new > bound:
                    failed = True

    if failed:
        print(f"timing gate failed for {argv[1]}", file=sys.stderr)
        return 1
    print(f"timing gate passed for {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
