#!/usr/bin/env python3
"""Builds the valpipe benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_figs|serve_wire|compile_many \
        --seed N --seconds S --trace 0|1 [--corrupt]

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only check that the build is current.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  The exit code is the
benchmark's: 0 when every operation passed its check.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "valpipe_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no valpipe sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")


def run(args, capture=False):
    """Runs the built benchmark with `args`; returns the CompletedProcess."""
    try:
        return subprocess.run([BINARY] + list(args), cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    build()
    sys.stdout.flush()
    sys.exit(run(sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
