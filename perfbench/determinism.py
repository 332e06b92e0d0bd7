#!/usr/bin/env python3
"""Workload and determinism self-checks of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/determinism.py [--seed 1] [--other-seed 2]

For every workload it checks that
  - the same seed generates the same request trace (TRACE_HASH) and a
    different seed a different one;
  - workload.dup_frac, the measured share of requests that repeat an
    earlier (plan, dataset), is 0 on serve-unique and fleet-8192 and a
    majority on serve-skewed;
  - dram_coverage, modeled_speedup, result_bit_error_rate and
    RESULT_HASH repeat exactly across two runs, and across 1 vs 2
    QueryServer shards (serve-*) or 1 vs 4 scheduler workers
    (fleet-8192).
Exits non-zero if any check fails.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-unique", "serve-skewed", "fleet-8192")


def run_benchmark(workload, seed, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", "0", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(command),
                                             done.returncode))
    return done.stdout


def field(output, pattern):
    match = re.search(pattern, output, re.MULTILINE)
    if match is None:
        raise RuntimeError("no match for %r" % pattern)
    return match.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()

    failures = 0

    def check(condition, what):
        nonlocal failures
        print("%-4s %s" % ("ok" if condition else "FAIL", what))
        failures += 0 if condition else 1

    for workload in WORKLOADS:
        a = run_benchmark(workload, args.seed, "--gen-only")
        b = run_benchmark(workload, args.seed, "--gen-only")
        c = run_benchmark(workload, args.other_seed, "--gen-only")
        hash_a = field(a, r"^TRACE_HASH (\w+)")
        check(hash_a == field(b, r"^TRACE_HASH (\w+)"),
              "%s: seed %d repeats its trace hash %s"
              % (workload, args.seed, hash_a))
        check(hash_a != field(c, r"^TRACE_HASH (\w+)"),
              "%s: seed %d gives another trace hash"
              % (workload, args.other_seed))
        dup = float(field(a, r"^workload\.dup_frac (\S+)"))
        if workload == "serve-skewed":
            check(dup > 0.5, "%s: dup_frac %.4f is a majority"
                  % (workload, dup))
        else:
            check(dup == 0.0, "%s: dup_frac %g is 0" % (workload, dup))

        if workload == "fleet-8192":
            variants = [("--workers", "4"), ("--workers", "4"),
                        ("--workers", "1")]
        else:
            variants = [("--shards", "2"), ("--shards", "2"),
                        ("--shards", "1")]
        seen = []
        for variant in variants:
            out = run_benchmark(workload, args.seed, *variant)
            seen.append((" ".join(variant),
                         field(out, r"^RESULT_HASH (\w+)"),
                         field(out, r"^DETERMINISTIC (.*)$")))
        for name, result_hash, line in seen:
            print("     %s %s: RESULT_HASH %s %s"
                  % (workload, name, result_hash, line))
        check(all(s[1:] == seen[0][1:] for s in seen),
              "%s: RESULT_HASH and deterministic metrics repeat across "
              "runs and %s" % (workload, variants[2][0].lstrip("-")))

    print("determinism: %s" % ("PASS" if failures == 0
                               else "%d FAILED" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
