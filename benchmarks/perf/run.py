"""The repo's one performance benchmark (contract: ``BENCHMARK.json``).

``python3 benchmarks/perf/run.py`` runs every workload, each in a fresh
subprocess, checks every unit against its oracle and prints every
end-to-end metric by name with its unit; ``--traced`` does the separate
per-layer run instead.  The driver's form runs one workload in this
process and ends with one JSON line::

    python3 benchmarks/perf/run.py --workload join_dense --seed 3 \\
        --seconds 20 --trace 0

Exit status is non-zero when a unit raised or failed its oracle, and
when the program under ``src/`` is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _with_units(values, declared):
    """``values`` as the result line's metrics, units from the contract.

    The contract is the single list of names: a value without an entry,
    or an entry without a value, is a bug in the benchmark.
    """
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(values) != set(units):
        raise SystemExit("metrics out of step with BENCHMARK.json: %s"
                         % sorted(set(values) ^ set(units)))
    return {name: {"value": values[name], "unit": units[name]}
            for name in sorted(values)}


def run_one(args):
    """Run one workload here; print its metrics and the result line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order feeds set/dict iteration inside the program; pin it
        # so the same seed walks the same code path.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise SystemExit("no program to measure: %s/repro is missing"
                         % SOURCE)
    sys.path.insert(0, SOURCE)
    import harness

    contract = load_contract()
    run = harness.Run(args.workload, args.seed, args.seconds,
                      trace=bool(args.trace), smoke=args.smoke).run()
    if args.trace:
        metrics = _with_units(run.per_layer(), contract["per_layer"])
    else:
        metrics = _with_units(run.end_to_end(), contract["end_to_end"])
    report = harness.write_report(run, metrics)
    for name, metric in metrics.items():
        print("%-12s %-40s %14.4f %s" % (args.workload, name,
                                          metric["value"], metric["unit"]))
    for name, value in sorted(report["raw"].items()):
        print("%-12s %-40s %14.4f (informational)"
              % (args.workload, name, value))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 1 if run.failed else 0


def run_all(args):
    """Every workload of the contract, each in its own subprocess."""
    status = 0
    for workload in load_contract()["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.traced))]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode:
            print("%-12s FAILED (exit %d)"
                  % (workload["name"], completed.returncode))
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the input generators only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: the "
                        "contract's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one short epoch (for tests)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
