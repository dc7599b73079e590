"""Self-healing cluster: health, routing, failover, fault schedules.

The end-to-end harness this PR is about lives in
:class:`TestFaultSchedules`: each seeded schedule builds a full cluster
(archive-mode primary behind a :class:`FaultInjectingDisk`, two warm
standbys — one with its own transient apply faults), runs an
acknowledged write workload through the :class:`ClusterClient`, kills
the primary at a seeded operation ordinal (optionally tearing the final
page write), and then requires the set to heal itself with **zero
acknowledged-commit loss** while every routed read stays within its
staleness bound.  ``CHAOS_SEED`` reproduces a CI failure locally;
``CLUSTER_SCHEDULES`` scales the sweep (CI runs 50).
"""

import os
import random
import threading
import time

import pytest

from repro.cluster import (
    DOWN,
    HEALTHY,
    SUSPECT,
    BackendHealth,
    ClusterClient,
    ClusterError,
    ClusterReadError,
    ClusterWriteError,
    NoBackendAvailable,
    NoPrimaryError,
    ReplicaSet,
)
from repro.core.database import XmlDatabase
from repro.storage.disk import FileDisk
from repro.storage.errors import TransientIOError
from repro.storage.faults import FaultInjectingDisk
from repro.storage.replication import (
    DEFAULT_MAX_RETRIES,
    LocalDirShipper,
    StandbyReplica,
)
from repro.storage.timemodel import VirtualClock

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
SCHEDULES = int(os.environ.get("CLUSTER_SCHEDULES", "10"))

PAGE_SIZE = 512
BUFFER_PAGES = 32

XML = ("<dept><team><name>db</name>"
       "<member><name>ada</name></member></team></dept>")


def make_cluster(tmp_path, standbys=2, kill_after=None, torn_bytes=None,
                 standby_faults=(), transport="local", proxy_config=None,
                 **set_options):
    """A ReplicaSet + ClusterClient over real files under ``tmp_path``.

    Returns ``(replica_set, client, primary_fault_disk, standby_disks)``.
    ``standby_faults`` maps standby ordinals to ``fail_next`` counts for
    transient apply faults.  ``transport="socket"`` swaps every
    LocalDirShipper for a SocketShipper behind a ChaosProxy (healthy
    unless ``proxy_config`` says otherwise); the proxy is exposed as
    ``replica_set.test_proxy`` for partition control, and all network
    resources are stopped by ``replica_set.close()``.
    """
    path = str(tmp_path / "primary.db")
    archive_dir = str(tmp_path / "primary.archive")
    disk = FaultInjectingDisk(
        FileDisk(path, PAGE_SIZE, durability="archive",
                 archive_dir=archive_dir))
    db = XmlDatabase.create(disk=disk, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES)
    db.add_document(XML, name="seed")
    db.flush()
    backup = str(tmp_path / "backup")
    db.hot_backup(backup)
    if kill_after is not None:
        # Arm the kill relative to the workload, not cluster setup.
        disk.kill_after = disk.op_counts["physical-write"] + kill_after
        disk.torn_bytes = torn_bytes
    net_resources = []
    proxy = None
    # A shipper call is one exchange, so over a socket the replica's
    # retry budget is the whole per-operation budget: ten exchanges.
    max_retries = 9 if transport == "socket" else DEFAULT_MAX_RETRIES
    if transport == "socket":
        from repro.net import ChaosProxy, SegmentServer, SocketShipper

        server = SegmentServer(archive_dir, PAGE_SIZE).start()
        proxy = ChaosProxy(server.address, config=proxy_config,
                           seed=SEED).start()
        net_resources += [proxy, server]

        def new_shipper(address):
            return SocketShipper(
                address, page_size=PAGE_SIZE, connect_timeout=0.25,
                read_timeout=0.5)

        def make_shipper():
            return new_shipper(proxy.address)

        def rebuild_factory(new_db, page_size):
            # Post-failover rebuilds serve the *new* primary's archive
            # over a fresh (healthy, direct) socket.
            srv = SegmentServer(new_db.archive.directory,
                                page_size).start()
            net_resources.append(srv)
            return new_shipper(srv.address)

        set_options.setdefault("shipper_factory", rebuild_factory)
    else:
        def make_shipper():
            return LocalDirShipper(archive_dir, PAGE_SIZE)

    replicas, standby_disks = [], []
    faults = dict(standby_faults)
    for index in range(standbys):
        wrappers = []

        def factory(p, ps, _w=wrappers):
            d = FaultInjectingDisk(FileDisk(p, ps, durability="none"))
            _w.append(d)
            return d

        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / ("standby-%d.db" % index)),
            make_shipper(), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, backoff_seconds=0.001,
            max_backoff_seconds=0.01, max_retries=max_retries,
            rng=random.Random(SEED), disk_factory=factory)
        if index in faults:
            wrappers[0].fail_next(faults[index], "physical-write")
        replicas.append(replica)
        standby_disks.append(wrappers[0])
    set_options.setdefault("down_after", 2)
    set_options.setdefault("cooldown_seconds", 0.02)
    replica_set = ReplicaSet(db, replicas, **set_options)
    replica_set.test_proxy = proxy
    if net_resources:
        original_close = replica_set.close

        def close_with_net():
            original_close()
            for resource in net_resources:
                resource.stop()

        replica_set.close = close_with_net
    return replica_set, ClusterClient(replica_set), disk, standby_disks


class TestBackendHealth:
    def test_failure_ladder_heal_and_breaker(self):
        clock = VirtualClock()
        health = BackendHealth("b", down_after=3, cooldown_seconds=1.0,
                               clock=clock)
        assert health.state == HEALTHY and health.allows_traffic
        health.record_failure("blip")
        assert health.state == SUSPECT and health.allows_traffic
        health.record_failure("blip")
        assert health.state == SUSPECT
        health.record_failure("blip")
        assert health.state == DOWN and not health.allows_traffic
        assert not health.allows_probe          # breaker open
        clock.advance(1.0)
        assert health.allows_probe              # half-open
        health.record_failure("still bad")
        assert not health.allows_probe          # re-opened
        clock.advance(1.0)
        health.record_success(lag_segments=0)
        assert health.state == HEALTHY and health.allows_traffic
        assert [t["to"] for t in health.transitions] == [
            SUSPECT, DOWN, HEALTHY]

    def test_fatal_failure_skips_the_ladder(self):
        clock = VirtualClock()
        health = BackendHealth("b", down_after=5, cooldown_seconds=0.5,
                               clock=clock)
        health.record_failure("disk died", fatal=True)
        assert health.state == DOWN
        assert not health.allows_probe

    def test_success_resets_consecutive_failures(self):
        health = BackendHealth("b", down_after=2, clock=VirtualClock())
        health.record_failure("x")
        assert health.state == SUSPECT          # one failure is enough
        health.record_success()
        assert health.state == HEALTHY
        health.record_failure("x")
        assert health.state == SUSPECT          # not DOWN: the run restarted
        assert health.consecutive_failures == 1

    def test_network_failures_walk_a_longer_ladder(self):
        """A run of network-kind failures needs ``network_down_after``
        (not ``down_after``) to take the backend down: flap != death."""
        health = BackendHealth("b", down_after=2, network_down_after=5,
                               clock=VirtualClock())
        for _ in range(4):
            health.record_failure("connect refused", kind="network")
        assert health.state == SUSPECT          # would be DOWN if plain
        assert health.network_failures == 4
        health.record_failure("connect refused", kind="network")
        assert health.state == DOWN             # a real outage still lands
        health.record_success()
        assert health.state == HEALTHY

    def test_non_network_failure_snaps_back_to_the_plain_threshold(self):
        health = BackendHealth("b", down_after=2, network_down_after=6,
                               clock=VirtualClock())
        health.record_failure("read timed out", kind="network")
        assert health.state == SUSPECT
        health.record_failure("disk error")     # not the network's fault
        assert health.state == DOWN             # plain down_after=2 applies

    def test_network_failures_are_never_fatal(self):
        health = BackendHealth("b", down_after=2, network_down_after=6,
                               clock=VirtualClock())
        health.record_failure("partition", fatal=True, kind="network")
        assert health.state == SUSPECT          # fatal was overridden


class TestReadRouting:
    def test_reads_carry_backend_and_staleness(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(tmp_path, standbys=1)
        try:
            client.add_document(XML, name="b")
            rs.tick()
            result = client.query("//member/name")
            assert result.backend_id in ("node-0", "node-1")
            assert result.staleness <= rs.staleness_bound
            assert result.sequence >= 1
            assert len(result.rows.matches) == 2
        finally:
            client.close()
            rs.close()

    def test_stalled_standby_is_excluded_by_staleness_bound(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(tmp_path, standbys=1,
                                              staleness_bound=1)
        try:
            # Two acked commits with no ticks: the standby is 2 behind —
            # outside the bound — while still answering probes.
            client.add_document(XML, name="b")
            client.add_document(XML, name="c")
            candidates = rs.read_candidates()
            assert [n.id for n in candidates] == ["node-0"]
            result = client.query("//member/name")
            assert result.backend_id == "node-0"   # primary, never stale
            rs.tick()                              # standby catches up
            assert {n.id for n in rs.read_candidates()} == {
                "node-0", "node-1"}
        finally:
            client.close()
            rs.close()

    def test_read_fails_over_on_transient_backend_error(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(tmp_path, standbys=1)
        try:
            rs.tick()
            standby = rs.view.standbys[0]
            original = standby.replica.query

            def flaky(path, **options):
                raise TransientIOError("injected read fault")

            standby.replica.query = flaky
            try:
                for _ in range(4):
                    result = client.query("//member/name")
                    assert result.backend_id == "node-0"
            finally:
                standby.replica.query = original
            snap = rs.observability.metrics.snapshot()
            assert snap["repro_cluster_read_failovers_total"] >= 1
            assert rs.health_of("node-1").state in (SUSPECT, DOWN)
            # A caller-fault error propagates without failover.
            with pytest.raises(Exception) as info:
                client.query("//no-such[")
            assert not isinstance(info.value, ClusterError)
        finally:
            client.close()
            rs.close()

    def test_hedged_read_races_a_second_backend(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(tmp_path, standbys=1)
        client.hedge_after = 0.02
        try:
            rs.tick()
            standby = rs.view.standbys[0]
            original = standby.replica.query

            def slow(path, **options):
                time.sleep(0.25)
                return original(path, **options)

            standby.replica.query = slow
            try:
                for _ in range(6):
                    result = client.query("//member/name", deadline=2.0)
                    assert len(result.rows.matches) >= 1
            finally:
                standby.replica.query = original
            snap = rs.observability.metrics.snapshot()
            assert snap["repro_cluster_hedge_launched_total"] >= 1
            assert snap["repro_cluster_hedge_won_total"] >= 1
        finally:
            client.close()
            rs.close()


class TestFailover:
    def test_monitor_detects_death_and_promotes(self, tmp_path):
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=2)
        try:
            client.add_document(XML, name="b")
            rs.tick()
            acked = rs.acked_sequence
            disk.crash_now()
            for _ in range(6):
                rs.tick()
            assert rs.epoch == 2
            status = rs.status()
            assert status["primary"] in ("node-1", "node-2")
            assert rs.last_failover["rebuilt"] == 1
            assert rs.acked_sequence >= acked
            epoch, node = rs.primary_for_write()
            names = [n for _i, n in node.database.documents()]
            assert names == ["seed", "b"]          # zero acked loss
            ack = client.add_document(XML, name="c")
            assert ack.epoch == 2 and ack.sequence == acked + 1
            snap = rs.observability.metrics.snapshot()
            assert snap["repro_cluster_failovers_total"] == 1
            assert snap["repro_cluster_fencings_total"] == 1
            assert snap["repro_cluster_epoch"] == 2
            assert snap["repro_cluster_failover_seconds"]["count"] == 1
            assert snap["repro_cluster_probe_failures_total"] >= 1
        finally:
            client.close()
            rs.close()

    def test_writer_reported_death_is_detected_immediately(self, tmp_path):
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=1,
                                             down_after=3)
        try:
            client.add_document(XML, name="b")
            rs.tick()
            disk.crash_now()
            with pytest.raises(ClusterWriteError, match="indeterminate"):
                client.add_document(XML, name="lost?")
            assert rs.observability.metrics.snapshot()[
                "repro_cluster_write_errors_total"] == 1
            # The fatal write failure went straight to down — one tick
            # fails over without waiting out the failure ladder.
            assert rs.health_of("node-0").state == DOWN
            rs.tick()
            assert rs.epoch == 2
            assert client.wait_for_primary(timeout=1.0) == 2
        finally:
            client.close()
            rs.close()

    def test_no_promotable_standby_leaves_headless_set(self, tmp_path):
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=0)
        try:
            disk.crash_now()
            for _ in range(4):
                rs.tick()
            assert rs.view.primary is None
            assert rs.observability.metrics.snapshot()[
                "repro_cluster_failover_failures_total"] >= 1
            with pytest.raises(NoPrimaryError):
                rs.primary_for_write()
            with pytest.raises(NoBackendAvailable):
                client.query("//member/name", deadline=0.2)
        finally:
            client.close()
            rs.close()

    def test_promotion_survives_standby_transient_faults(self, tmp_path):
        rs, client, _disk, standby_disks = make_cluster(
            tmp_path, standbys=2, standby_faults={0: 2, 1: 1})
        try:
            client.add_document(XML, name="b")
            for _ in range(3):
                rs.tick()                       # retries absorb the faults
            for node in rs.view.standbys:
                assert node.applied_sequence == rs.acked_sequence
            retries = sum(
                node.replica.stats.retries_by_cause.get("apply", 0)
                for node in rs.view.standbys)
            assert retries >= 3
        finally:
            client.close()
            rs.close()

    def test_standby_awaiting_reseed_is_never_elected(self, tmp_path):
        """A standby marked ``needs_reseed`` cannot tail (and a failover
        survivor's file may hold a stale timeline): promoting it would
        lose acked commits, so the election passes it over."""
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=2)
        try:
            client.add_document(XML, name="b")
            rs.tick()
            rs.view.standbys[0].replica.needs_reseed = True
            disk.crash_now()
            rs.failover("test: primary killed")
            assert rs.last_failover["elected"] == "node-2"
        finally:
            client.close()
            rs.close()

    def test_failed_survivor_reseed_is_retried_not_dropped(self, tmp_path):
        """A survivor whose post-failover re-seed fails stays in the set,
        marked ``needs_reseed``; the next tick re-seeds it and it tails
        the new primary to the acked head."""
        calls = []

        def flaky_factory(database, page_size):
            calls.append(database)
            if len(calls) == 1:
                raise TransientIOError("injected: new archive unreachable")
            return LocalDirShipper(database.archive.directory, page_size)

        rs, client, disk, _sd = make_cluster(
            tmp_path, standbys=2, shipper_factory=flaky_factory)
        try:
            client.add_document(XML, name="b")
            rs.tick()
            disk.crash_now()
            rs.failover("test: primary killed")
            assert rs.epoch == 2
            [survivor] = rs.view.standbys
            assert survivor.replica.needs_reseed
            assert rs.last_failover["rebuilt"] == 0
            client.add_document(XML, name="c")
            for _ in range(3):
                rs.tick()
            assert not survivor.replica.needs_reseed
            assert rs.last_failover["rebuilt"] == 1
            assert survivor.applied_sequence == rs.acked_sequence
            names = [n for _i, n in survivor.replica.documents()]
            assert names == ["seed", "b", "c"]
            snap = rs.observability.metrics.snapshot()
            assert snap["repro_cluster_reseed_failures_total"] == 1
            assert snap["repro_cluster_reseeds_total"] == 1
        finally:
            client.close()
            rs.close()


class TestSocketTransportDropIn:
    """The PR 7 failover guarantees, re-run with LocalDirShipper swapped
    for SocketShipper behind a healthy ChaosProxy: the transport is a
    true drop-in and the guarantees are transport-independent."""

    def test_reads_route_over_sockets(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(tmp_path, standbys=1,
                                              transport="socket")
        try:
            client.add_document(XML, name="b")
            rs.tick()
            result = client.query("//member/name")
            assert result.staleness <= rs.staleness_bound
            assert len(result.rows.matches) == 2
            # Segments really crossed the wire.
            standby = rs.view.standbys[0]
            assert standby.replica.shipper.stats.responses > 0
        finally:
            client.close()
            rs.close()

    def test_monitor_detects_death_and_promotes_over_sockets(self,
                                                             tmp_path):
        """Byte-for-byte the PR 7 guarantee — zero acked loss through a
        primary kill — with every segment shipped over TCP.  The segment
        server outlives the primary process (immutable files), which is
        what lets the standby finish catching up after the crash."""
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=2,
                                             transport="socket")
        try:
            client.add_document(XML, name="b")
            rs.tick()
            acked = rs.acked_sequence
            disk.crash_now()
            for _ in range(6):
                rs.tick()
            assert rs.epoch == 2
            assert rs.last_failover["rebuilt"] == 1
            epoch, node = rs.primary_for_write()
            names = [n for _i, n in node.database.documents()]
            assert names == ["seed", "b"]          # zero acked loss
            ack = client.add_document(XML, name="c")
            assert ack.epoch == 2 and ack.sequence == acked + 1
            # The rebuilt survivor tails the new primary over its own
            # socket and converges.
            for _ in range(4):
                rs.tick()
            for standby in rs.view.standbys:
                assert standby.applied_sequence == rs.acked_sequence
        finally:
            client.close()
            rs.close()


class TestNetworkFlap:
    """Partition blips are absorbed; only a sustained outage fails over."""

    def test_short_partition_blip_causes_no_spurious_failover(self,
                                                              tmp_path):
        """Regression: a partition shorter than ``network_down_after``
        ticks leaves the epoch unchanged, keeps the primary primary, and
        routes reads to the surviving (reachable) backends throughout."""
        rs, client, _disk, _sd = make_cluster(
            tmp_path, standbys=1, transport="socket",
            down_after=2, network_down_after=6)
        proxy = rs.test_proxy
        try:
            client.add_document(XML, name="b")
            rs.tick()
            standby_id = rs.view.standbys[0].id
            proxy.partition(mode="refuse")
            for _ in range(3):      # < network_down_after ticks
                rs.tick()
            health = rs.health_of(standby_id)
            assert health.state == SUSPECT      # noticed, not condemned
            assert health.network_failures >= 1
            assert rs.epoch == 1                # no spurious failover
            # Reads keep flowing within their staleness bound: the blip
            # cut the replication link, not the serving path — a suspect
            # standby may still serve (it is behind healthy peers in the
            # ranking) and the primary always can.
            result = client.query("//member/name", deadline=2.0)
            assert result.backend_id in ("node-0", "node-1")
            assert result.staleness <= rs.staleness_bound
            proxy.heal()
            for _ in range(3):
                rs.tick()
            assert rs.health_of(standby_id).state == HEALTHY
            assert rs.epoch == 1
            snap = rs.observability.metrics.snapshot()
            assert snap["repro_cluster_network_flaps_total"] >= 1
            assert snap["repro_cluster_failovers_total"] == 0
        finally:
            client.close()
            rs.close()

    def test_sustained_partition_takes_the_standby_down(self, tmp_path):
        rs, client, _disk, _sd = make_cluster(
            tmp_path, standbys=1, transport="socket",
            down_after=2, network_down_after=4,
            cooldown_seconds=30.0)   # keep the breaker shut once down
        proxy = rs.test_proxy
        try:
            client.add_document(XML, name="b")
            rs.tick()
            standby_id = rs.view.standbys[0].id
            proxy.partition(mode="refuse")
            for _ in range(5):      # > network_down_after
                rs.tick()
            assert rs.health_of(standby_id).state == DOWN
            assert rs.epoch == 1    # a dead *standby* never fails over
            result = client.query("//member/name", deadline=2.0)
            assert result.backend_id == "node-0"
        finally:
            client.close()
            rs.close()


def run_schedule(tmp_path, rng, schedule_id):
    """One seeded fault schedule; returns observations for the sweep.

    Kills the primary at a seeded physical-write ordinal (sometimes
    tearing the final write), with one standby absorbing seeded transient
    apply faults, while an acknowledged write workload and interleaved
    bounded-staleness reads run through the client.
    """
    base = tmp_path / ("schedule-%d" % schedule_id)
    base.mkdir()
    kill_after = rng.randrange(4, 80)
    torn = rng.choice([None, 1, 7, rng.randrange(1, PAGE_SIZE)])
    rs, client, disk, _sd = make_cluster(
        base, standbys=2, kill_after=kill_after, torn_bytes=torn,
        standby_faults={rng.randrange(2): rng.randrange(1, 3)})
    acked = ["seed"]
    staleness_violations = []
    failed_over = False
    try:
        for index in range(10):
            name = "doc-%d" % index
            try:
                client.add_document(XML, name=name)
            except (ClusterWriteError, NoPrimaryError):
                break
            acked.append(name)      # only after the ack came back
            rs.tick()
            try:
                result = client.query("//member/name", deadline=2.0)
                if result.staleness > rs.staleness_bound:
                    staleness_violations.append(
                        (schedule_id, result.backend_id, result.staleness))
            except (ClusterReadError, NoBackendAvailable):
                pass                # failing is allowed; lying is not
        # Recovery: bounded ticks until a writable primary exists.
        for _ in range(50):
            rs.tick()
            try:
                epoch, node = rs.primary_for_write()
                break
            except NoPrimaryError:
                continue
        epoch, node = rs.primary_for_write()
        failed_over = epoch > 1
        names = [n for _i, n in node.database.documents()]
        lost = [name for name in acked if name not in names]
        # The post-recovery cluster must also take writes again.
        client.add_document(XML, name="post-recovery")
        assert "post-recovery" in [
            n for _i, n in node.database.documents()]
        return {
            "schedule": schedule_id,
            "kill_after": kill_after,
            "torn": torn,
            "acked": len(acked),
            "lost": lost,
            "failed_over": failed_over,
            "staleness_violations": staleness_violations,
        }
    finally:
        client.close()
        rs.close()


class TestFaultSchedules:
    def test_seeded_schedules_lose_nothing_acked(self, tmp_path):
        rng = random.Random(SEED)
        results = [run_schedule(tmp_path, rng, i) for i in range(SCHEDULES)]
        lost = [r for r in results if r["lost"]]
        assert not lost, "acked commits lost: %r" % lost
        violations = [v for r in results
                      for v in r["staleness_violations"]]
        assert not violations, \
            "reads beyond staleness bound: %r" % violations
        # The sweep must actually exercise failover, not just happy paths.
        assert any(r["failed_over"] for r in results), \
            "no schedule killed the primary; widen kill_after range"

    def test_client_storm_through_a_failover(self, tmp_path):
        """Readers and a writer hammer the cluster while the primary dies
        under them; the monitor heals the set in the background."""
        rs, client, disk, _sd = make_cluster(tmp_path, standbys=2,
                                             staleness_bound=2)
        rs.start(interval=0.01)
        stop = threading.Event()
        errors = []
        violations = []
        reads = [0]
        acked = ["seed"]

        def reader():
            while not stop.is_set():
                try:
                    result = client.query("//member/name", deadline=1.0)
                    reads[0] += 1
                    if result.staleness > 2:
                        violations.append(result.staleness)
                except (ClusterError, TimeoutError):
                    pass
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index in range(5):
                client.add_document(XML, name="pre-%d" % index)
                acked.append("pre-%d" % index)
                time.sleep(0.01)
            disk.crash_now()
            try:
                client.add_document(XML, name="mid-kill")
                acked.append("mid-kill")
            except (ClusterWriteError, NoPrimaryError):
                pass
            # wait_for_primary alone is not enough here: until a tick
            # notices the death, the old primary still answers
            # primary_for_write.  Drive the ticks from here rather than
            # waiting on the monitor's clock: ReplicaSet runs one tick at
            # a time, so ticking beside the monitor is safe, and the dead
            # primary goes down within down_after probes.
            for _ in range(rs.down_after + 2):
                if rs.epoch >= 2:
                    break
                rs.tick()
            assert rs.epoch >= 2
            assert client.wait_for_primary(timeout=5.0) >= 2
            for index in range(3):
                client.add_document(XML, name="post-%d" % index)
                acked.append("post-%d" % index)
                time.sleep(0.01)
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(5.0)
            rs.stop_monitor()
        assert not errors, errors
        assert not violations, violations
        assert reads[0] > 0
        _epoch, node = rs.primary_for_write()
        names = [n for _i, n in node.database.documents()]
        assert [name for name in acked if name not in names] == []
        client.close()
        rs.close()
