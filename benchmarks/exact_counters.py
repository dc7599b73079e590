"""The deterministic half of the perf benchmark, as a regression gate.

Timing on a shared host is 6-12 % noisy, but the per-layer metrics that
``benchmarks/perf/README.md`` marks ``*`` are counts of work done — page
requests and misses, elements scanned, skips, pages written per commit —
and repeat bit-for-bit for a seed.  This script runs every workload of
``BENCHMARK.json`` once, small (``run.py --seed 1 --trace 1 --smoke
--seconds 1``), keeps those metrics and compares them with the committed
``benchmarks/exact_counters.json``::

    python3 benchmarks/exact_counters.py            # exit 1 if any cell moved
    python3 benchmarks/exact_counters.py --update   # after a change *meant* to move work

Both print one ``workload  metric  old -> new`` line per moved cell;
``--update`` then rewrites the file.  A change that claims only time must
leave the file as it is; a change that claims work regenerates it and
says which cells moved and why.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMMITTED = os.path.join(HERE, "exact_counters.json")

_JOIN_COUNTS = ("elements_scanned", "page_requests", "page_misses", "skips")

#: The ``*`` cells of the README's per-layer table.
EXACT = (
    "pages.decode_calls_per_unit",
    "buffer.requests_per_unit",
    "buffer.misses_per_unit",
    "buffer.evictions_per_unit",
    "disk.commits_per_unit",
    "disk.page_writes_per_commit",
    "disk.bytes_written_per_user_byte",
    "disk.segment_bytes_per_commit",
    "replication.segments_per_unit",
    "replication.lag_after_tick",
    "xrtree.find_ancestors_calls_per_unit",
    "xrtree.stab_pages_per_unit",
    "query.elements_scanned_per_row",
    "server.session_refreshes",
    "server.rejected",
    "cluster.standby_read_share",
) + tuple("joins.%s_%s" % (algorithm, count)
          for algorithm in ("xr_stack", "bplus", "stack_tree")
          for count in _JOIN_COUNTS)


def measure(workload):
    """The exact cells of one smoke run of ``workload``."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "perf", "run.py"),
         "--workload", workload, "--seed", "1", "--trace", "1", "--smoke",
         "--seconds", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = completed.stdout.splitlines()
    if completed.returncode or not lines:
        raise SystemExit("%s: run.py exited %d\n%s"
                         % (workload, completed.returncode, completed.stdout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s: %d of %d units failed their oracle"
                         % (workload, result["failed"], result["attempted"]))
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite exact_counters.json from this run")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [entry["name"] for entry in json.load(handle)["workloads"]]
    measured = {workload: measure(workload) for workload in workloads}
    with open(COMMITTED) as handle:
        committed = json.load(handle)
    moved = 0
    for workload in sorted(set(committed) | set(measured)):
        before = committed.get(workload, {})
        after = measured.get(workload, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                print("%-12s %-40s %s -> %s"
                      % (workload, name, before.get(name), after.get(name)))
                moved += 1
    print("%d exact cells on %d workloads, %d moved"
          % (len(EXACT) * len(workloads), len(workloads), moved))
    if args.update:
        with open(COMMITTED, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % os.path.relpath(COMMITTED, ROOT))
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
