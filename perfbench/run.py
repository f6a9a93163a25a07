#!/usr/bin/env python3
"""Build the benchmark from source (Release) and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sort_rt --seed 1 --seconds 45 --trace 0

The program's libraries (src/) and the perfbench binary are configured with
CMake into .bench_build/perfbench and built there; every argument is passed
to the binary, whose last line of stdout is the JSON result. Exits non-zero,
without printing a result, when the sources or the toolchain are missing or
the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 1


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no program sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                return fail(f"build failed: {' '.join(step)} (log: {log})")
    return 0


def main():
    status = build()
    if status:
        return status
    return subprocess.run([str(BINARY)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
