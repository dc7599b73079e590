"""Does the benchmark agree with itself?  Two interleaved sets of runs.

Runs the driver's command ``2 x N`` times per workload on this checkout
(set A run i, set B run i, ... with seeds 1..N, so both sets see the same
inputs and the same stretches of machine weather) and, for every
``workload/end-to-end metric`` cell, prints each set's median and
quartiles, the spread of each set (interquartile distance over median —
what the driver computes over ten seeds) and how much worse set B's
median is than set A's, next to the bound.  A bound is breached when a
spread (``setup_s`` excepted, as in the driver) or the disagreement
exceeds it; any breach makes the exit status non-zero.  Timing metrics
also show the spread of their raw, un-normalised readings.  The table is
written to ``NOISE.json`` beside this file.

    python3 benchmarks/perf/noise.py --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

NOISE_PATH = os.path.join(bench.HERE, "NOISE.json")


def one_run(workload, seed, seconds):
    """The driver's invocation; returns the parsed result line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    # The un-normalised readings are not part of the result line; the run
    # leaves them in its informational report.
    with open(os.path.join(bench.HERE, "out",
                           "%s-trace0.json" % workload)) as handle:
        result["raw"] = json.load(handle)["raw"]
    return result


def summarise(values):
    low, median, high = statistics.quantiles(values, n=4)
    return {"median": median, "q1": low, "q3": high,
            "spread": (high - low) / median, "values": values}


def worse_by(first, second, better):
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def measure(contract, runs, seconds, workloads):
    table = {}
    for workload in workloads:
        sets = {"a": [], "b": []}
        for seed in range(1, runs + 1):
            for label in ("a", "b"):
                result = one_run(workload, seed, seconds)
                if not result["correct"]:
                    raise SystemExit("%s seed %d: %d of %d units failed"
                                     % (workload, seed, result["failed"],
                                        result["attempted"]))
                sets[label].append(result)
                print("  %s seed %d set %s done" % (workload, seed, label),
                      file=sys.stderr)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = (summarise([run["metrics"][name]["value"]
                               for run in sets[label]])
                    for label in ("a", "b"))
            raw = "raw_" + name
            if raw in sets["a"][0]["raw"]:
                for summary, label in ((a, "a"), (b, "b")):
                    summary["raw_spread"] = summarise(
                        [run["raw"][raw] for run in sets[label]])["spread"]
            disagreement = worse_by(a["median"], b["median"],
                                    metric["better"])
            spreads_count = name != "setup_s"
            table["%s/%s" % (workload, name)] = {
                "a": a, "b": b, "disagreement": disagreement,
                "bound": metric["bound"],
                "breach": (disagreement > metric["bound"]
                           or (spreads_count
                               and max(a["spread"], b["spread"])
                               > metric["bound"]))}
    return table


def _percent(summary):
    """The raw (un-normalised) spread of a timing metric, if it has one."""
    if "raw_spread" not in summary:
        return "-"
    return "%.1f%%" % (summary["raw_spread"] * 100)


def main(argv=None):
    contract = bench.load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (at least 5)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names,
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("quartiles of fewer than 5 runs say nothing")
    table = measure(contract, args.runs, args.seconds,
                    args.workload or names)
    print("%-32s %12s %8s %8s %12s %8s %8s %9s %6s" % (
        "workload/metric", "median A", "spread A", "(raw)", "median B",
        "spread B", "(raw)", "B worse", "bound"))
    for cell, row in table.items():
        a, b = row["a"], row["b"]
        print("%-32s %12.4f %7.1f%% %8s %12.4f %7.1f%% %8s %8.1f%% %5.0f%%%s"
              % (cell, a["median"], a["spread"] * 100, _percent(a),
                 b["median"], b["spread"] * 100, _percent(b),
                 row["disagreement"] * 100, row["bound"] * 100,
                 "  BREACH" if row["breach"] else ""))
    with open(NOISE_PATH, "w") as handle:
        json.dump({"runs_per_set": args.runs, "seconds": args.seconds,
                   "cells": table}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if any(row["breach"] for row in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
