#!/usr/bin/env python3
"""Build and run the verdict benchmark.

    python3 perfbench/run.py --workload cold_sim --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds the
repository's libraries plus the benchmark into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The benchmark binary prints
its report; its last stdout line is the JSON result. Exits non-zero, without
a result, when the build fails (for instance when ../src is missing).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(command, timeout):
    try:
        result = subprocess.run(command, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(command)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    # Write a fresh build's output back now, not during the measurement.
    os.sync()


def main(argv):
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    build(build_dir)
    if argv[:1] == ["--test"]:
        command = [os.path.join(build_dir, "verdict_bench_test")]
    else:
        work_dir = os.path.join(build_dir, "work")
        command = [os.path.join(build_dir, "verdict_bench"),
                   "--work-dir", work_dir, *argv]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
