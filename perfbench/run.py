#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-unique --seed 1 \
        --seconds 30 --trace 0

The program is built with CMake into .bench_build/ at the checkout root
(build output goes to stderr). Extra program flags such as --shards,
--workers and --gen-only pass through. The last line of standard
output is the program's JSON result. `--selftest` builds and runs the
harness tests instead of a workload.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run must end within 180 s; the first run may also build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        command = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        command = [os.path.join(BUILD, "perfbench"), *argv,
                   "--out", os.path.join(BUILD, "out")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
