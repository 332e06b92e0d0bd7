#!/usr/bin/env python3
"""Steadiness runner: run workloads repeatedly and report the spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload serve-unique --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --sets 2

Each run uses its own seed (--first-seed, --first-seed + 1, ...). For
every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
bound BENCHMARK.json fixes for it. With --sets 2 it repeats the whole
set and also prints how far the second median moved from the first.
A metric whose spread exceeds a third of its bound is marked WIDE, one
beyond its bound FAIL (setup_s is exempt from the spread rule, as its
bound only limits drift between medians).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: correct=%s failed=%s" %
                           (workload, seed, result["correct"],
                            result["failed"]))
    return result["metrics"]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def run_set(workload, seeds, seconds, trace):
    samples = {}
    for seed in seeds:
        metrics = run_once(workload, seed, seconds, trace)
        for name, metric in metrics.items():
            samples.setdefault(name, []).append(metric["value"])
        sys.stderr.write("  %s seed %d done\n" % (workload, seed))
    return samples


def report(workload, sets, bounds):
    print("\n== %s (%d runs per set)" % (workload, len(sets[0]["qps"])
                                          if "qps" in sets[0] else 0))
    print("%-22s %14s %14s %14s %8s %7s %8s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "drift",
           "verdict"))
    ok = True
    for name in sets[0]:
        median, q1, q3, spread = summarize(sets[0][name])
        bound = bounds.get(name, {}).get("bound")
        drift = ""
        verdict = ""
        if bound is not None:
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, ok = "FAIL", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "WIDE"
            for later in sets[1:]:
                later_median = summarize(later[name])[0]
                worse = later_median - median
                if bounds[name]["better"] == "higher":
                    worse = -worse
                share = worse / median if median else 0.0
                drift = "%+.4f" % share
                if share > bound:
                    verdict, ok = "FAIL", False
        print("%-22s %14.6g %14.6g %14.6g %8.4f %7s %8s  %s" %
              (name, median, q1, q3, spread,
               "" if bound is None else "%.3g" % bound, drift, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    metric_list = benchmark["end_to_end" if args.trace == 0 else "per_layer"]
    bounds = {m["name"]: m for m in metric_list}
    workloads = ([w["name"] for w in benchmark["workloads"]]
                 if args.workload == "all" else [args.workload])
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            seeds = range(first, first + args.runs)
            sets.append(run_set(workload, seeds, seconds, args.trace))
        ok = report(workload, sets, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
