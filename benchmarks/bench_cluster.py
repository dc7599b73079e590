"""Cluster fault-schedule bench: recovery-time percentiles under chaos.

Each seeded schedule builds a full replica set (archive-mode primary on
a :class:`~repro.storage.faults.FaultInjectingDisk`, two warm standbys —
one absorbing its own seeded transient apply faults), starts the health
monitor, and drives an acknowledged write workload through the
:class:`~repro.cluster.ClusterClient` until the primary is killed
mid-commit at a seeded physical-write ordinal (sometimes tearing the
final page write).  The schedule then measures, per failover:

* **detection** — disk death to the primary's health reaching ``down``;
* **promotion** — detection to writes re-pointed (the supervisor's
  fence → elect → promote → swap, from ``last_failover``);
* **first read / first write** — disk death to the first successful
  routed read / acknowledged write on the new epoch.

Invariants are checked on every schedule, not sampled: zero
acknowledged-commit loss (every acked document is on the promoted
primary) and zero routed reads beyond the staleness bound.  The sweep's
percentiles land in ``BENCH_cluster.json`` when run as a script::

    PYTHONPATH=src python benchmarks/bench_cluster.py

Scale with ``CLUSTER_SCHEDULES`` (default 50); ``CHAOS_SEED`` pins the
schedule randomness for reproduction.
"""

import json
import os
import random
import threading
import time

from repro.cluster import (
    ClusterClient,
    ClusterError,
    ClusterWriteError,
    DOWN,
    NoPrimaryError,
    ReplicaSet,
)
from repro.core.database import XmlDatabase
from repro.storage.disk import FileDisk
from repro.storage.faults import FaultInjectingDisk
from repro.storage.replication import LocalDirShipper, StandbyReplica

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
SCHEDULES = int(os.environ.get("CLUSTER_SCHEDULES", "50"))

PAGE_SIZE = 512
BUFFER_PAGES = 32
STALENESS_BOUND = 2
MAX_WRITES = 40
RECOVERY_TIMEOUT = 10.0

XML = ("<dept><team><name>db</name>"
       "<member><name>ada</name></member></team></dept>")


def _percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def build_cluster(tmp_dir, rng):
    """One seeded cluster: armed primary disk, two standbys (one flaky)."""
    path = os.path.join(tmp_dir, "primary.db")
    archive_dir = os.path.join(tmp_dir, "primary.archive")
    disk = FaultInjectingDisk(
        FileDisk(path, PAGE_SIZE, durability="archive",
                 archive_dir=archive_dir))
    db = XmlDatabase.create(disk=disk, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES)
    db.add_document(XML, name="seed")
    db.flush()
    backup = os.path.join(tmp_dir, "backup")
    db.hot_backup(backup)
    # Most schedules kill mid-commit at a seeded ordinal (the writer
    # reports the death synchronously: detection is instant).  The rest
    # kill the primary while idle, so the sweep also measures the
    # monitor's detection path.
    if rng.random() >= 0.3:
        # Arm relative to the workload, not setup, so every ordinal in
        # the range lands inside a client-visible commit.
        disk.kill_after = (disk.op_counts["physical-write"]
                           + rng.randrange(4, 120))
    disk.torn_bytes = rng.choice([None, 1, 7, rng.randrange(1, PAGE_SIZE)])
    replicas = []
    flaky_index = rng.randrange(2)
    for index in range(2):
        wrappers = []

        def factory(p, ps, _w=wrappers):
            d = FaultInjectingDisk(FileDisk(p, ps, durability="none"))
            _w.append(d)
            return d

        replica = StandbyReplica.from_backup(
            backup, os.path.join(tmp_dir, "standby-%d.db" % index),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, backoff_seconds=0.001,
            max_backoff_seconds=0.01, disk_factory=factory)
        if index == flaky_index:
            wrappers[0].fail_next(rng.randrange(1, 3), "physical-write")
        replicas.append(replica)
    replica_set = ReplicaSet(db, replicas,
                             staleness_bound=STALENESS_BOUND,
                             down_after=2, cooldown_seconds=0.02)
    return replica_set, ClusterClient(replica_set), disk


def run_schedule(tmp_dir, rng, schedule_id):
    """One schedule; returns measurements and invariant violations."""
    base = os.path.join(tmp_dir, "schedule-%d" % schedule_id)
    os.makedirs(base)
    rs, client, disk = build_cluster(base, rng)
    rs.start(interval=0.005)
    acked = ["seed"]
    staleness_violations = []
    old_primary = rs.view.primary.id
    killed_at = None
    try:
        for index in range(MAX_WRITES):
            name = "doc-%d" % index
            try:
                client.add_document(XML, name=name)
            except (ClusterWriteError, NoPrimaryError):
                killed_at = time.monotonic()
                break
            acked.append(name)
            if index % 3 == 0:
                try:
                    result = client.query("//member/name", deadline=2.0)
                    if result.staleness > STALENESS_BOUND:
                        staleness_violations.append(result.staleness)
                except ClusterError:
                    pass
        if killed_at is None:
            # The seeded ordinal outlived the workload: kill explicitly
            # so every schedule exercises a failover.
            disk.crash_now()
            killed_at = time.monotonic()
        give_up = killed_at + RECOVERY_TIMEOUT
        while rs.epoch < 2 and time.monotonic() < give_up:
            time.sleep(0.001)
        if rs.epoch < 2:
            return {"schedule": schedule_id, "recovered": False,
                    "lost": [], "staleness_violations": staleness_violations}
        first_read = None
        while time.monotonic() < give_up:
            try:
                result = client.query("//member/name", deadline=1.0)
                first_read = time.monotonic()
                if result.staleness > STALENESS_BOUND:
                    staleness_violations.append(result.staleness)
                break
            except ClusterError:
                time.sleep(0.001)
        first_write = None
        while time.monotonic() < give_up:
            try:
                client.add_document(XML, name="post-recovery")
                first_write = time.monotonic()
                acked.append("post-recovery")
                break
            except (ClusterWriteError, NoPrimaryError):
                time.sleep(0.001)
        _epoch, node = rs.primary_for_write()
        names = [n for _i, n in node.database.documents()]
        lost = [name for name in acked if name not in names]
        failover = rs.last_failover
        if failover is not None:
            # The surviving standby is re-seeded after writes re-point
            # (a failed re-seed is retried by the next tick); give the
            # supervisor a beat to finish healing the set.
            while (failover["rebuilt"] < 1
                    and time.monotonic() < give_up):
                time.sleep(0.001)
        down_at = None
        for entry in rs.health_of(old_primary).transitions:
            if entry["to"] == DOWN:
                down_at = entry["at"]
                break
        return {
            "schedule": schedule_id,
            "recovered": first_read is not None and first_write is not None,
            "acked": len(acked),
            "lost": lost,
            "staleness_violations": staleness_violations,
            "rebuilt": failover["rebuilt"] if failover else 0,
            "detection_ms": (max(0.0, (down_at - killed_at) * 1e3)
                             if down_at is not None else None),
            "promotion_ms": (failover["duration_seconds"] * 1e3
                             if failover else None),
            "first_read_ms": (max(0.0, (first_read - killed_at) * 1e3)
                              if first_read is not None else None),
            "first_write_ms": (max(0.0, (first_write - killed_at) * 1e3)
                               if first_write is not None else None),
        }
    finally:
        rs.stop_monitor()
        client.close()
        rs.close()


def run_sweep(tmp_dir, schedules=SCHEDULES, seed=SEED):
    """Returns the aggregate result dict; raises on invariant breaks."""
    rng = random.Random(seed)
    results = []
    started = time.monotonic()
    for schedule_id in range(schedules):
        results.append(run_schedule(tmp_dir, rng, schedule_id))
    wall = time.monotonic() - started
    lost = [(r["schedule"], r["lost"]) for r in results if r["lost"]]
    if lost:
        raise AssertionError("acked commits lost: %r" % lost)
    stale = [(r["schedule"], r["staleness_violations"])
             for r in results if r["staleness_violations"]]
    if stale:
        raise AssertionError("reads beyond staleness bound: %r" % stale)
    unrecovered = [r["schedule"] for r in results if not r["recovered"]]
    if unrecovered:
        raise AssertionError("schedules never recovered: %r" % unrecovered)

    def series(key):
        return [r[key] for r in results if r.get(key) is not None]

    def cells(key):
        samples = series(key)
        return {
            "p50": round(_percentile(samples, 0.50), 3),
            "p95": round(_percentile(samples, 0.95), 3),
            "max": round(max(samples), 3) if samples else 0.0,
        }

    return {
        "bench": "cluster",
        "seed": seed,
        "schedules": schedules,
        "failovers": len(series("promotion_ms")),
        "acked_commits": sum(r["acked"] for r in results),
        "lost_commits": 0,
        "staleness_violations": 0,
        "standbys_rebuilt": sum(r["rebuilt"] for r in results),
        "detection_ms": cells("detection_ms"),
        "promotion_ms": cells("promotion_ms"),
        "first_read_ms": cells("first_read_ms"),
        "first_write_ms": cells("first_write_ms"),
        "wall_seconds": round(wall, 3),
    }


def test_cluster_fault_sweep_smoke(tmp_path, benchmark):
    schedules = min(SCHEDULES, 5)
    result = benchmark.pedantic(
        lambda: run_sweep(str(tmp_path), schedules=schedules),
        rounds=1, iterations=1)
    print("\n=== Cluster failover (%d schedules) ===" % result["schedules"])
    print("failovers %d  acked %d  lost %d  detection p95 %.1fms  "
          "first read p95 %.1fms"
          % (result["failovers"], result["acked_commits"],
             result["lost_commits"], result["detection_ms"]["p95"],
             result["first_read_ms"]["p95"]))
    assert result["lost_commits"] == 0
    assert result["staleness_violations"] == 0
    assert result["failovers"] == result["schedules"]
    assert result["first_read_ms"]["p95"] > 0.0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        outcome = run_sweep(tmp_dir)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_cluster.json")
    with open(out, "w") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print("wrote %s" % out)
