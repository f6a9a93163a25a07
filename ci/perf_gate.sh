#!/usr/bin/env bash
# CI perf-regression gate: build Release, run the bench/perf_snapshot
# workload basket, and fail on any drift in the deterministic counters.
#
#   ci/perf_gate.sh                    # validate + gate against BENCH_3.json
#   UPDATE_BASELINE=1 ci/perf_gate.sh  # re-pin BENCH_3.json (then review+commit);
#                                      # refused unless the build is plain Release
#   JOBS=8 BUILD_DIR=build-ci-perf ci/perf_gate.sh
#
# What is gated and what is not:
#   * counters   deterministic event totals (messages, plans, cells) —
#                exact-match against the committed BENCH_<pr>.json, and
#                byte-identical between --threads 1 and --threads 4
#   * timing     the per-workload cold/warm monotonic-clock stats —
#                ratio-gated by ci/check_timing.py: warm-cache sweeps must
#                stay >= 25% faster than cold, and warm medians must stay
#                within PERF_GATE_RATIO (default 1.5x) of the baseline's
#   * the rest   wall_seconds, gauges, histograms — machine-dependent,
#                reported in the snapshot but never compared
#
# The gate emits the fresh snapshot at ${SNAPSHOT_OUT} (default
# ${BUILD_DIR}/BENCH_3.new.json — inside the build tree, so a local run
# never drops files at the repo root) and CI uploads it as an artifact next
# to the baseline.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build-ci-perf}"
BASELINE="${BASELINE:-BENCH_3.json}"
SNAPSHOT_OUT="${SNAPSHOT_OUT:-${BUILD_DIR}/BENCH_3.new.json}"

echo "== configure ${BUILD_DIR} (Release)"
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "== build perf_snapshot"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target perf_snapshot >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

echo "== run workload basket (--threads 1)"
"${BUILD_DIR}/bench/perf_snapshot" --threads 1 --out "${SNAPSHOT_OUT}"
echo "== run workload basket (--threads 4)"
"${BUILD_DIR}/bench/perf_snapshot" --threads 4 --out "${tmp}/t4.json"

echo "== schema validation"
python3 ci/validate_bench.py "${SNAPSHOT_OUT}" ci/bench_schema.json
python3 ci/validate_bench.py "${tmp}/t4.json" ci/bench_schema.json

echo "== thread-count determinism (counters at --threads 1 vs 4)"
python3 ci/diff_bench_counters.py "${SNAPSHOT_OUT}" "${tmp}/t4.json"

echo "== warm-cache speedup (plan/scenario caches)"
python3 ci/check_timing.py "${SNAPSHOT_OUT}"

# Profiling artifact: one traced pass of the basket, exported as Chrome
# trace JSON (load in Perfetto) and validated. Its counters are not gated —
# the relperf leg separately proves tracing leaves them byte-identical.
echo "== traced profiling run (artifact only)"
"${BUILD_DIR}/bench/perf_snapshot" --threads 4 --reps 1 \
  --out "${tmp}/traced_snapshot.json" \
  --trace-out "${BUILD_DIR}/BENCH_3.trace.json"
python3 ci/validate_trace.py "${BUILD_DIR}/BENCH_3.trace.json"

if [ "${UPDATE_BASELINE:-0}" = "1" ]; then
  # Refuses (exit 1, baseline untouched) unless the snapshot's meta block
  # says plain Release: its timings become every later run's reference.
  python3 ci/check_timing.py --pin "${SNAPSHOT_OUT}" "${BASELINE}"
  exit 0
fi

if [ ! -f "${BASELINE}" ]; then
  echo "missing baseline ${BASELINE}; run UPDATE_BASELINE=1 ci/perf_gate.sh" >&2
  exit 1
fi

echo "== counter drift vs committed ${BASELINE}"
python3 ci/diff_bench_counters.py "${BASELINE}" "${SNAPSHOT_OUT}"

echo "== timing non-regression vs committed ${BASELINE}"
python3 ci/check_timing.py "${SNAPSHOT_OUT}" "${BASELINE}"

echo "ci/perf_gate.sh: all green"
