#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload spark-ml --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The engine libraries and the driver are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) under
perfbench/; the first run builds, later runs only check that the build is
current. Build output goes to stderr. The driver's last line of stdout is the
JSON result, and its exit status is this script's exit status. Shuffle spill
files and traced-run outputs (per-layer JSON, Chrome traces) go to
<build dir>/perfbench-scratch.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def run_step(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: %s failed (exit %d)\n" % (what, proc.returncode))
        sys.exit(1)


def build(out):
    cmake_dir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", PACKAGE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", cmake_dir, "--target", "perfbench_driver", "-j", jobs],
             "build")
    return os.path.join(cmake_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    driver = build(out)
    scratch = os.path.join(out, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the driver did not finish within %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
