"""Cost of crash safety: durable + checksummed FileDisk vs raw writes.

Every committed page carries a CRC-32 and is written twice (segment
record, then apply), so durability is not free.  This bench bounds the
overhead on a realistic lifecycle — bulk load a generated document, then
rounds of incremental inserts and repeated path queries with a flush per
round — by running the identical workload on

* **durable**  — ``FileDisk(durability="journal")``, the default: atomic
  commit groups through the one stage -> segment -> apply path,
  superblock, recovery-on-open;
* **baseline** — ``FileDisk(durability="none")``: in-place writes, no
  segments (the pre-crash-safety behaviour, kept for comparison).

``durability="archive"`` runs the same commit path and only *keeps* its
segments, so it is not timed again; one archive run reports what that
retained history costs in ``segment_bytes``.

Asserts the acceptance criteria: the durable run stays within 2.5x the
baseline's physical page writes and 2x its wall time, and all runs return
identical query results.  Note a commit coalesces rewrites of the same
page within a commit interval, which claws back much of the 2x write
amplification on update-heavy rounds.
"""

import time

from repro.core.database import XmlDatabase
from repro.storage.disk import FileDisk
from repro.workloads import department_dataset

ELEMENTS = 8000
ROUNDS = 8
PATHS = ("//email", "//department/employee")
INCREMENT = ("<project><task><title>t%d</title></task>"
             "<task><title>u%d</title></task></project>")


def run_workload(path, durability, document):
    """One full lifecycle on a fresh file; returns (wall, checksum, disk)."""
    disk = FileDisk(path, page_size=2048, durability=durability)
    db = XmlDatabase.create(disk=disk, page_size=2048, buffer_pages=128)
    started = time.perf_counter()
    db.add_document(document, name="base")
    db.flush()
    checksum = 0
    for round_no in range(ROUNDS):
        db.add_document(INCREMENT % (round_no, round_no),
                        name="inc-%d" % round_no)
        for query in PATHS:
            checksum += len(db.query(query))
        db.flush()
    db.close()
    return time.perf_counter() - started, checksum, disk


def test_durability_overhead_bounded(benchmark, tmp_path):
    document = department_dataset(ELEMENTS, seed=7).document

    def compare():
        durable_wall, durable_sum, durable_disk = run_workload(
            str(tmp_path / "durable.db"), "journal", document)
        _wall, archive_sum, archive_disk = run_workload(
            str(tmp_path / "archive.db"), "archive", document)
        baseline_wall, baseline_sum, baseline_disk = run_workload(
            str(tmp_path / "baseline.db"), "none", document)
        return (durable_wall, durable_sum, durable_disk.durability_stats,
                archive_sum, archive_disk.archive.bytes_on_disk(),
                baseline_wall, baseline_sum, baseline_disk.durability_stats)

    (durable_wall, durable_sum, durable,
     archive_sum, segment_bytes,
     baseline_wall, baseline_sum, baseline) = benchmark.pedantic(
        compare, rounds=1, iterations=1)

    write_ratio = durable.physical_page_writes \
        / max(1, baseline.physical_page_writes)
    wall_ratio = durable_wall / baseline_wall
    print("\n=== Durability overhead: %d elements, %d rounds ==="
          % (ELEMENTS, ROUNDS))
    print("durable    %.3fs  physical=%-6d (logged=%d applied=%d "
          "superblock=%d) commits=%d"
          % (durable_wall, durable.physical_page_writes,
             durable.logged_pages, durable.applied_pages,
             durable.superblock_writes, durable.commits))
    print("baseline   %.3fs  physical=%-6d (direct=%d superblock=%d)"
          % (baseline_wall, baseline.physical_page_writes,
             baseline.direct_pages, baseline.superblock_writes))
    print("retained   segment_bytes=%d" % segment_bytes)
    print("ratios     writes %.2fx  wall %.2fx" % (write_ratio, wall_ratio))

    assert durable_sum == baseline_sum
    assert archive_sum == baseline_sum
    assert write_ratio <= 2.5, \
        "durable write amplification %.2fx exceeds 2.5x" % write_ratio
    assert wall_ratio <= 2.0, \
        "durable wall overhead %.2fx exceeds 2x" % wall_ratio
