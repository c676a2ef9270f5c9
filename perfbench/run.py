#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scale-seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest          # the benchmark's own tests

The simulator libraries and the driver are built with optimisation into
.bench_build/perfbench (configured once, rebuilt incrementally). Build
output goes to stderr, so the last line of stdout is the driver's JSON
result. Arguments other than --selftest pass through to the driver; see
perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not any(os.path.isfile(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_test")]).returncode
    return subprocess.run([build("qmb_perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
