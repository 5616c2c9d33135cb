#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload eager_flood --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary unchanged (see perfbench/README.md).
The build lives in .bench_build/perfbench under the repository root and is
incremental, so only the first run pays for compiling the library. Build
output goes to stderr; the binary's stdout passes through, and its last line
is the JSON result. Exits non-zero, without a result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def run_logged(cmd):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if run_logged(configure) != 0:
        # A cache from another source location cannot be reused: start over.
        shutil.rmtree(BUILD, ignore_errors=True)
        if run_logged(configure) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD, "-j", jobs]) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
