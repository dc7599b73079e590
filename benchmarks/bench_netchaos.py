"""Network fault-schedule bench: replication over chaos-proxied sockets.

Each seeded schedule builds a replica set whose standbys tail the
primary's archive across real TCP sockets — every standby behind its own
:class:`~repro.net.proxy.ChaosProxy` — and then injects the failure the
transport exists to survive:

* **partition mid-catch-up** — one standby's proxy is partitioned
  (``refuse`` or ``blackhole``, seeded) while the write workload runs;
* **kill during partition** (most schedules) — the primary's disk dies
  while the standby is still cut off; the monitor must fail over to the
  *connected* standby, and the segment server (immutable files, no
  writer needed) lets the promoted node finish catching up;
* **heal** — the partition lifts and every surviving standby must
  converge to the acknowledged head;
* **blip** (remaining schedules) — the partition heals without a kill,
  and the network-aware health ladder must **not** fail over.

About half the schedules also run mild frame misdelivery (duplicates,
corruption, reorders) on the standby links throughout, so convergence is
demonstrated through a genuinely hostile transport, not a quiet one.

Invariants are checked on every schedule, not sampled: zero
acknowledged-commit loss, zero routed reads beyond the staleness bound,
and zero spurious failovers on blip schedules.  The sweep's percentiles
land in ``BENCH_netchaos.json`` when run as a script::

    PYTHONPATH=src python benchmarks/bench_netchaos.py

Scale with ``NETCHAOS_SCHEDULES`` (default 50); ``CHAOS_SEED`` pins the
schedule randomness for reproduction.
"""

import json
import os
import random
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
from repro.net import ChaosConfig, ChaosProxy, SegmentServer, SocketShipper
from repro.storage.disk import FileDisk
from repro.storage.faults import FaultInjectingDisk
from repro.storage.replication import StandbyReplica

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
SCHEDULES = int(os.environ.get("NETCHAOS_SCHEDULES", "50"))

PAGE_SIZE = 512
BUFFER_PAGES = 32
STALENESS_BOUND = 3
MAX_WRITES = 24
RECOVERY_TIMEOUT = 10.0
CONVERGE_TIMEOUT = 10.0

XML = ("<dept><team><name>db</name>"
       "<member><name>ada</name></member></team></dept>")


def _percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def build_cluster(tmp_dir, rng, lossy):
    """A socket-transport cluster: two standbys, each behind a proxy.

    Returns ``(replica_set, client, primary_disk, proxies, resources)``
    where ``proxies[i]`` controls standby *i*'s link and ``resources``
    is everything network-shaped that must be stopped at teardown.
    """
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

    resources = []
    server = SegmentServer(archive_dir, PAGE_SIZE).start()
    resources.append(server)
    config = (ChaosConfig(duplicate_rate=0.1, corrupt_rate=0.1,
                          reorder_rate=0.1, latency_seconds=0.003,
                          jitter_seconds=0.002) if lossy else None)

    # A shipper call is one exchange; the replica's retry loop is the
    # only retry, so its budget bounds the wire: 12 exchanges per poll
    # or fetch.  The monitor thread serializes standby tailing, so a
    # blackholed standby costs every tick (read_timeout + backoff) *
    # (max_retries + 1) before the failover branch runs.
    def new_shipper(address):
        return SocketShipper(
            address, page_size=PAGE_SIZE, connect_timeout=0.1,
            read_timeout=0.1)

    def rebuild_factory(new_db, page_size):
        # Post-failover rebuilds tail the *new* primary's archive over
        # a fresh, direct socket (the old link may still be cut).
        srv = SegmentServer(new_db.archive.directory, page_size).start()
        resources.append(srv)
        return new_shipper(srv.address)

    proxies, replicas = [], []
    for index in range(2):
        proxy = ChaosProxy(server.address, config=config,
                           seed=rng.randrange(1 << 30)).start()
        proxies.append(proxy)
        resources.append(proxy)
        replica = StandbyReplica.from_backup(
            backup, os.path.join(tmp_dir, "standby-%d.db" % index),
            new_shipper(proxy.address), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, max_retries=11,
            backoff_seconds=0.001, max_backoff_seconds=0.01,
            rng=random.Random(rng.randrange(1 << 30)))
        replicas.append(replica)
    replica_set = ReplicaSet(db, replicas,
                             staleness_bound=STALENESS_BOUND,
                             down_after=2, network_down_after=6,
                             cooldown_seconds=0.02,
                             shipper_factory=rebuild_factory)
    return replica_set, ClusterClient(replica_set), disk, proxies, resources


def run_schedule(tmp_dir, rng, schedule_id):
    """One schedule; returns measurements and invariant violations."""
    base = os.path.join(tmp_dir, "schedule-%d" % schedule_id)
    os.makedirs(base)
    lossy = rng.random() < 0.5
    kill = rng.random() < 0.6
    partition_mode = rng.choice(["refuse", "blackhole"])
    partition_at = rng.randrange(3, 10)
    kill_at = partition_at + rng.randrange(2, 6)
    rs, client, disk, proxies, resources = build_cluster(base, rng, lossy)
    target_proxy = proxies[0]      # standby-0 gets cut off
    hedged = not kill
    if hedged:
        # On blip schedules, hedged reads mask the slow/partitioned
        # standby: a read that lands on the node whose tail is blocked
        # mid-blackhole waits on its lock, the hedge races a healthy
        # peer and wins.  The sweep asserts hedging actually fired.
        client.hedge_after = 0.05
    rs.start(interval=0.005)
    acked = ["seed"]
    staleness_violations = []
    old_primary = rs.view.primary.id
    killed_at = None
    partitioned_at = None
    try:
        for index in range(MAX_WRITES):
            if index == partition_at:
                time.sleep(0.05)   # standbys reach lag 0: all rank equal
                target_proxy.partition(mode=partition_mode)
                partitioned_at = time.monotonic()
                if hedged:
                    # Read burst at partition onset: rotation lands some
                    # reads on the cut-off standby while its blocked
                    # tail holds the node lock — exactly what hedging
                    # exists to mask.  The sweep asserts it fired.
                    time.sleep(0.02)
                    for _ in range(6):
                        try:
                            result = client.query("//member/name",
                                                  deadline=2.0)
                            if result.staleness > STALENESS_BOUND:
                                staleness_violations.append(
                                    result.staleness)
                        except ClusterError:
                            pass
            if kill and index == kill_at:
                disk.crash_now()
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
        if kill and killed_at is None:
            # The armed kill never surfaced through a write (workload
            # ended first): kill explicitly so the schedule still
            # exercises a failover under partition.
            disk.crash_now()
            killed_at = time.monotonic()

        recovered = True
        detection_ms = promotion_ms = first_write_ms = None
        if kill:
            give_up = killed_at + RECOVERY_TIMEOUT
            while rs.epoch < 2 and time.monotonic() < give_up:
                time.sleep(0.001)
            recovered = rs.epoch >= 2

        # Heal the partition — after the kill-and-promote on kill
        # schedules, as the *only* event on blip schedules.
        target_proxy.heal()
        healed_at = time.monotonic()

        if kill and recovered:
            give_up = killed_at + RECOVERY_TIMEOUT
            first_write = None
            while time.monotonic() < give_up:
                try:
                    client.add_document(XML, name="post-recovery")
                    first_write = time.monotonic()
                    acked.append("post-recovery")
                    break
                except (ClusterWriteError, NoPrimaryError):
                    time.sleep(0.001)
            recovered = first_write is not None
            failover = rs.last_failover
            if failover is not None:
                promotion_ms = failover["duration_seconds"] * 1e3
            down_at = None
            for entry in rs.health_of(old_primary).transitions:
                if entry["to"] == DOWN:
                    down_at = entry["at"]
                    break
            if down_at is not None:
                detection_ms = max(0.0, (down_at - killed_at) * 1e3)
            if first_write is not None:
                first_write_ms = max(0.0, (first_write - killed_at) * 1e3)

        # Convergence: every standby still in the set reaches the
        # acknowledged head across its (now healed) socket.
        converged_at = None
        give_up = healed_at + CONVERGE_TIMEOUT
        while time.monotonic() < give_up:
            standbys = rs.view.standbys
            if standbys and all(s.applied_sequence == rs.acked_sequence
                                for s in standbys):
                converged_at = time.monotonic()
                break
            time.sleep(0.001)
        heal_to_converge_ms = (
            max(0.0, (converged_at - healed_at) * 1e3)
            if converged_at is not None else None)

        _epoch, node = rs.primary_for_write()
        names = [n for _i, n in node.database.documents()]
        lost = [name for name in acked if name not in names]
        chaos = {
            "frames_duplicated": sum(p.stats.frames_duplicated
                                     for p in proxies),
            "frames_corrupted": sum(p.stats.frames_corrupted
                                    for p in proxies),
            "frames_reordered": sum(p.stats.frames_reordered
                                    for p in proxies),
            "refused_connections": sum(p.stats.refused_connections
                                       for p in proxies),
            "blackholed_connections": sum(p.stats.blackholed_connections
                                          for p in proxies),
        }
        frames_rejected = sum(
            s.replica.shipper.stats.frames_rejected
            for s in rs.view.standbys
            if isinstance(s.replica.shipper, SocketShipper))
        metrics = rs.observability.metrics.snapshot()
        return {
            "schedule": schedule_id,
            "kill": kill,
            "lossy": lossy,
            "partition_mode": partition_mode,
            "partitioned": partitioned_at is not None,
            "recovered": recovered,
            "converged": converged_at is not None,
            "epoch": rs.epoch,
            "acked": len(acked),
            "lost": lost,
            "staleness_violations": staleness_violations,
            "chaos": chaos,
            "frames_rejected": frames_rejected,
            "hedged": hedged,
            "hedges_launched": metrics.get(
                "repro_cluster_hedge_launched_total", 0),
            "hedges_won": metrics.get("repro_cluster_hedge_won_total", 0),
            "detection_ms": detection_ms,
            "promotion_ms": promotion_ms,
            "first_write_ms": first_write_ms,
            "heal_to_converge_ms": heal_to_converge_ms,
        }
    finally:
        rs.stop_monitor()
        client.close()
        rs.close()
        for resource in resources:
            resource.stop()


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
    unconverged = [r["schedule"] for r in results if not r["converged"]]
    if unconverged:
        raise AssertionError("standbys never converged after heal: %r"
                             % unconverged)
    spurious = [r["schedule"] for r in results
                if not r["kill"] and r["epoch"] != 1]
    if spurious:
        raise AssertionError("blip schedules failed over: %r" % spurious)
    unpartitioned = [r["schedule"] for r in results if not r["partitioned"]]
    if unpartitioned:
        raise AssertionError("partition never fired: %r" % unpartitioned)
    hedge_eligible = [r for r in results
                      if r["hedged"] and r["partition_mode"] == "blackhole"]
    if hedge_eligible and not any(r["hedges_launched"]
                                  for r in hedge_eligible):
        raise AssertionError(
            "hedging never fired across %d blackhole-blip schedules"
            % len(hedge_eligible))

    def series(key):
        return [r[key] for r in results if r.get(key) is not None]

    def cells(key):
        samples = series(key)
        return {
            "p50": round(_percentile(samples, 0.50), 3),
            "p95": round(_percentile(samples, 0.95), 3),
            "max": round(max(samples), 3) if samples else 0.0,
        }

    def chaos_total(key):
        return sum(r["chaos"][key] for r in results)

    return {
        "bench": "netchaos",
        "seed": seed,
        "schedules": schedules,
        "kill_schedules": sum(1 for r in results if r["kill"]),
        "blip_schedules": sum(1 for r in results if not r["kill"]),
        "failovers": len(series("promotion_ms")),
        "spurious_failovers": 0,
        "acked_commits": sum(r["acked"] for r in results),
        "lost_commits": 0,
        "staleness_violations": 0,
        "frames_duplicated": chaos_total("frames_duplicated"),
        "frames_corrupted": chaos_total("frames_corrupted"),
        "frames_reordered": chaos_total("frames_reordered"),
        "partition_refusals": chaos_total("refused_connections"),
        "partition_blackholes": chaos_total("blackholed_connections"),
        "frames_rejected_by_shippers": sum(r["frames_rejected"]
                                           for r in results),
        "hedges_launched": sum(r["hedges_launched"] for r in results),
        "hedges_won": sum(r["hedges_won"] for r in results),
        "detection_ms": cells("detection_ms"),
        "promotion_ms": cells("promotion_ms"),
        "first_write_ms": cells("first_write_ms"),
        "heal_to_converge_ms": cells("heal_to_converge_ms"),
        "wall_seconds": round(wall, 3),
    }


def test_netchaos_fault_sweep_smoke(tmp_path, benchmark):
    schedules = min(SCHEDULES, 5)
    result = benchmark.pedantic(
        lambda: run_sweep(str(tmp_path), schedules=schedules),
        rounds=1, iterations=1)
    print("\n=== Network chaos (%d schedules) ===" % result["schedules"])
    print("failovers %d  acked %d  lost %d  corrupted %d  "
          "heal->converge p95 %.1fms"
          % (result["failovers"], result["acked_commits"],
             result["lost_commits"], result["frames_corrupted"],
             result["heal_to_converge_ms"]["p95"]))
    assert result["lost_commits"] == 0
    assert result["staleness_violations"] == 0
    assert result["spurious_failovers"] == 0
    assert result["failovers"] == result["kill_schedules"]
    assert (result["partition_refusals"]
            + result["partition_blackholes"]) > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        outcome = run_sweep(tmp_dir)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_netchaos.json")
    with open(out, "w") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print("wrote %s" % out)
