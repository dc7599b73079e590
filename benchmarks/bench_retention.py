"""Retention bench: bounded archives, PITR restores, ENOSPC chaos.

Two phases, both seeded and both gated on hard invariants:

* **sustained-write phase** — one retention-enabled replica set takes a
  long acked write workload while ``tick()`` drives checkpoints and
  pruning.  Measured: the archive high-water mark (segments *and*
  bytes) against the policy bound, then a full PITR restore from the
  latest checkpoint rolled forward through the retained archive — the
  restored database must land exactly on the acknowledged head with
  every acked document present.
* **retention-chaos sweep** — seeded schedules interleave acked writes
  with single-shot ENOSPC on commit, sticky disk-full windows (freed
  later), wedged standby tails (the ``max_standby_lag`` budget must
  re-seed them rather than hold retention forever), and — on ~30% of
  schedules — a primary kill mid-run (failover plus retention
  re-attach on the promoted node).

Invariants are checked on every schedule, not sampled: zero
acknowledged-commit loss, zero permanent standby stalls (every survivor
converges, possibly via snapshot re-seed), and an archive high-water
mark that never exceeds ``pitr_window + checkpoint_every +
max_standby_lag + 2`` segments.  The aggregate lands in
``BENCH_retention.json`` when run as a script::

    PYTHONPATH=src python benchmarks/bench_retention.py

Scale with ``RETENTION_SCHEDULES`` (default 50); ``CHAOS_SEED`` pins the
schedule randomness for reproduction.
"""

import json
import os
import random
import time

from repro.cluster import ClusterClient, ReplicaSet
from repro.core.database import XmlDatabase
from repro.storage.disk import FileDisk
from repro.storage.faults import FaultInjectingDisk
from repro.storage.replication import LocalDirShipper, StandbyReplica
from repro.storage.retention import RetentionPolicy

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
SCHEDULES = int(os.environ.get("RETENTION_SCHEDULES", "50"))

PAGE_SIZE = 512
BUFFER_PAGES = 32
SUSTAINED_WRITES = 60
CHAOS_OPS = 24

XML = ("<dept><team><name>db</name>"
       "<member><name>ada</name></member></team></dept>")


def _percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def build_cluster(tmp_dir, policy, standbys=2, **set_options):
    """A retention-enabled replica set over real files.

    Returns ``(replica_set, client, primary_db, primary_fault_disk)``;
    the primary sits behind a :class:`FaultInjectingDisk` so schedules
    can arm ENOSPC and kills.
    """
    os.makedirs(tmp_dir, exist_ok=True)
    path = os.path.join(tmp_dir, "primary.db")
    archive_dir = os.path.join(tmp_dir, "primary.archive")
    disk = FaultInjectingDisk(
        FileDisk(path, PAGE_SIZE, durability="archive",
                 archive_dir=archive_dir))
    db = XmlDatabase.create(disk=disk, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES)
    db.add_document(XML, name="seed")
    db.flush()
    backup = os.path.join(tmp_dir, "base.backup")
    db.hot_backup(backup)
    replicas = []
    for index in range(standbys):
        replicas.append(StandbyReplica.from_backup(
            backup, os.path.join(tmp_dir, "standby-%d.db" % index),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, backoff_seconds=0.001,
            max_backoff_seconds=0.01))
    set_options.setdefault("cooldown_seconds", 0.02)
    replica_set = ReplicaSet(db, replicas, retention_policy=policy,
                             **set_options)
    return replica_set, ClusterClient(replica_set), db, disk


def run_sustained(tmp_dir):
    """Bounded high-water mark under steady load, then a PITR restore."""
    policy = RetentionPolicy(pitr_window=4, checkpoint_every=6,
                             max_standby_lag=12)
    rs, client, db, _disk = build_cluster(tmp_dir, policy)
    bound = policy.pitr_window + policy.checkpoint_every + 2
    high_water_segments = 0
    high_water_bytes = 0
    write_ms = []
    acked = []
    try:
        for index in range(SUSTAINED_WRITES):
            label = "sustained-%d" % index
            started = time.monotonic()
            client.add_document("<d><e>%s</e></d>" % label, name=label)
            write_ms.append((time.monotonic() - started) * 1e3)
            acked.append(label)
            rs.tick()
            _oldest, _newest, count, size = db.archive.replay_window()
            high_water_segments = max(high_water_segments, count)
            high_water_bytes = max(high_water_bytes, size)
        status = rs.status()
        retention = status["retention"]

        # PITR acceptance: restore the latest checkpoint and roll it
        # forward through the retained archive to the acknowledged head.
        record = db.retention.latest_checkpoint()
        restore_started = time.monotonic()
        restored = XmlDatabase.restore(
            record["directory"], os.path.join(tmp_dir, "restored.db"),
            archive_dir=os.path.join(tmp_dir, "primary.archive"),
            page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES)
        restore_ms = (time.monotonic() - restore_started) * 1e3
        present = {name for _i, name in restored.documents()}
        lost = [label for label in acked if label not in present]
        at_head = restored.restore_result.sequence == db.commit_sequence
        restored.close()
        return {
            "writes": len(acked),
            "high_water_segments": high_water_segments,
            "high_water_bytes": high_water_bytes,
            "segment_bound": bound,
            "bounded": high_water_segments <= bound,
            "checkpoints": retention["checkpoints"],
            "prunes": retention["prunes"],
            "segments_pruned": retention["segments_pruned"],
            "pitr_restore_ok": at_head and not lost,
            "pitr_lost": lost,
            "restore_ms": round(restore_ms, 3),
            "write_ms": {
                "p50": round(_percentile(write_ms, 0.50), 3),
                "p95": round(_percentile(write_ms, 0.95), 3),
                "max": round(max(write_ms), 3),
            },
        }
    finally:
        client.close()
        rs.close()


def run_schedule(tmp_dir, rng, schedule_id):
    """One seeded chaos schedule; returns its measurement row."""
    policy = RetentionPolicy(pitr_window=rng.choice((1, 2, 3)),
                             checkpoint_every=rng.choice((2, 3)),
                             max_standby_lag=rng.choice((3, 5)))
    schedule_dir = os.path.join(tmp_dir, "schedule-%d" % schedule_id)
    os.makedirs(schedule_dir, exist_ok=True)
    rs, client, db, disk = build_cluster(
        schedule_dir, policy, down_after=2)
    bound = (policy.pitr_window + policy.checkpoint_every
             + policy.max_standby_lag + 2)
    kill_at = rng.randrange(8, 16) if rng.random() < 0.3 else None
    acked = []
    high_water = 0
    enospc_shots = 0
    sticky_windows = 0
    wedge_windows = 0
    frozen = None
    frozen_until = -1
    sticky_until = -1
    recovered = True
    try:
        for op in range(CHAOS_OPS):
            if op == kill_at:
                primary = rs.view.primary
                d = primary.database._context.disk
                d.kill_after = d.op_counts["physical-write"] + 1
                try:
                    client.add_document("<d><e>killer</e></d>")
                except Exception:
                    pass              # unacked by definition
                for _ in range(12):
                    rs.tick()
                    if (rs.status()["epoch"] > 1
                            and rs.view.primary is not None):
                        break
                recovered = rs.view.primary is not None
                if not recovered:
                    break
            if frozen is not None and op >= frozen_until:
                frozen[0].catch_up = frozen[1]
                frozen = None
            if sticky_until >= 0 and op >= sticky_until:
                for node in rs.view.nodes:
                    if node.role == "primary":
                        d = node.database._context.disk
                        if hasattr(d, "free_space"):
                            d.free_space()
                sticky_until = -1
            roll = rng.random()
            if roll < 0.10 and frozen is None:
                replica = rng.choice(
                    [n.replica for n in rs.view.standbys] or [None])
                if replica is not None:
                    frozen = (replica, replica.catch_up)
                    replica.catch_up = lambda limit=None: 0
                    frozen_until = op + rng.randrange(3, 8)
                    wedge_windows += 1
            elif roll < 0.18:
                primary = rs.view.primary
                if primary is not None:
                    d = primary.database._context.disk
                    if hasattr(d, "fail_with_disk_full"):
                        d.fail_with_disk_full(1)
                        enospc_shots += 1
            elif roll < 0.24 and sticky_until < 0:
                primary = rs.view.primary
                if primary is not None:
                    d = primary.database._context.disk
                    if hasattr(d, "fill_disk"):
                        d.fill_disk()
                        sticky_until = op + rng.randrange(2, 5)
                        sticky_windows += 1
            label = "doc-%d-%d" % (schedule_id, op)
            try:
                client.add_document("<d><e>%s</e></d>" % label, name=label)
                acked.append(label)
            except Exception:
                pass          # unacked: allowed to be lost
            rs.tick()
            primary = rs.view.primary
            if primary is not None:
                archive = primary.database.archive
                if archive is not None:
                    high_water = max(high_water,
                                     archive.replay_window()[2])
        # Drain: free space, unwedge, tick to convergence.
        if frozen is not None:
            frozen[0].catch_up = frozen[1]
        for node in rs.view.nodes:
            d = getattr(node, "database", None)
            d = d._context.disk if d is not None else None
            if d is not None and hasattr(d, "free_space"):
                d.free_space()
        converged = False
        for _ in range(20):
            rs.tick()
            status = rs.status()
            if all(b["applied_sequence"] == status["acked_sequence"]
                   and not b.get("needs_reseed")
                   for b in status["backends"]):
                converged = True
                break
        status = rs.status()
        metrics = rs.observability.metrics.snapshot()
        primary = rs.view.primary
        lost = acked
        if primary is not None:
            present = {name for _i, name in primary.database.documents()}
            lost = [label for label in acked if label not in present]
        retention = status["retention"] or {}
        return {
            "schedule": schedule_id,
            "kill": kill_at is not None,
            "recovered": recovered,
            "converged": converged and recovered,
            "epoch": status["epoch"],
            "acked": len(acked),
            "lost": lost,
            "high_water": high_water,
            "bound": bound,
            "enospc_shots": enospc_shots,
            "sticky_windows": sticky_windows,
            "wedge_windows": wedge_windows,
            "checkpoints": retention.get("checkpoints", 0),
            "prunes": retention.get("prunes", 0),
            "emergency_prunes": retention.get("emergency_prunes", 0),
            "segments_pruned": retention.get("segments_pruned", 0),
            "reseeds": metrics.get("repro_cluster_reseeds_total", 0),
            "lag_budget_marks": metrics.get(
                "repro_cluster_lag_budget_marks_total", 0),
            "degradations": metrics.get(
                "repro_cluster_disk_full_degradations_total", 0),
            "recoveries": metrics.get(
                "repro_cluster_disk_full_recoveries_total", 0),
        }
    finally:
        client.close()
        rs.close()


def run_sweep(tmp_dir, schedules=SCHEDULES, seed=SEED):
    """Returns the aggregate result dict; raises on invariant breaks."""
    rng = random.Random(seed)
    started = time.monotonic()
    sustained = run_sustained(os.path.join(tmp_dir, "sustained"))
    results = []
    for schedule_id in range(schedules):
        results.append(run_schedule(tmp_dir, rng, schedule_id))
    wall = time.monotonic() - started

    if not sustained["bounded"]:
        raise AssertionError(
            "sustained archive high-water %d above bound %d"
            % (sustained["high_water_segments"],
               sustained["segment_bound"]))
    if not sustained["pitr_restore_ok"]:
        raise AssertionError(
            "PITR restore inside the window failed: lost=%r"
            % sustained["pitr_lost"])
    lost = [(r["schedule"], r["lost"]) for r in results if r["lost"]]
    if lost:
        raise AssertionError("acked commits lost: %r" % lost)
    unrecovered = [r["schedule"] for r in results if not r["recovered"]]
    if unrecovered:
        raise AssertionError("failover never completed: %r" % unrecovered)
    unconverged = [r["schedule"] for r in results if not r["converged"]]
    if unconverged:
        raise AssertionError("standbys never converged: %r" % unconverged)
    unbounded = [(r["schedule"], r["high_water"], r["bound"])
                 for r in results if r["high_water"] > r["bound"]]
    if unbounded:
        raise AssertionError("archive high-water above bound: %r"
                             % unbounded)
    spurious = [r["schedule"] for r in results
                if not r["kill"] and r["epoch"] != 1]
    if spurious:
        raise AssertionError(
            "disk-full schedules failed over: %r" % spurious)

    def total(key):
        return sum(r[key] for r in results)

    high_waters = [r["high_water"] for r in results]
    return {
        "bench": "retention",
        "seed": seed,
        "schedules": schedules,
        "sustained": sustained,
        "kill_schedules": sum(1 for r in results if r["kill"]),
        "acked_commits": total("acked"),
        "lost_commits": 0,
        "spurious_failovers": 0,
        "unconverged_standbys": 0,
        "enospc_shots": total("enospc_shots"),
        "sticky_windows": total("sticky_windows"),
        "wedge_windows": total("wedge_windows"),
        "checkpoints": total("checkpoints"),
        "prunes": total("prunes"),
        "emergency_prunes": total("emergency_prunes"),
        "segments_pruned": total("segments_pruned"),
        "reseeds": total("reseeds"),
        "lag_budget_marks": total("lag_budget_marks"),
        "disk_full_degradations": total("degradations"),
        "disk_full_recoveries": total("recoveries"),
        "high_water_segments": {
            "p50": _percentile(high_waters, 0.50),
            "p95": _percentile(high_waters, 0.95),
            "max": max(high_waters) if high_waters else 0,
        },
        "wall_seconds": round(wall, 3),
    }


def test_retention_sweep_smoke(tmp_path, benchmark):
    schedules = min(SCHEDULES, 4)
    result = benchmark.pedantic(
        lambda: run_sweep(str(tmp_path), schedules=schedules),
        rounds=1, iterations=1)
    print("\n=== Retention chaos (%d schedules) ===" % result["schedules"])
    print("acked %d  lost %d  high-water max %d  reseeds %d  "
          "emergency prunes %d  PITR restore %.1fms"
          % (result["acked_commits"], result["lost_commits"],
             result["high_water_segments"]["max"], result["reseeds"],
             result["emergency_prunes"],
             result["sustained"]["restore_ms"]))
    assert result["lost_commits"] == 0
    assert result["sustained"]["pitr_restore_ok"]
    assert result["sustained"]["bounded"]
    assert result["segments_pruned"] > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        outcome = run_sweep(tmp_dir)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_retention.json")
    with open(out, "w") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print("wrote %s" % out)
