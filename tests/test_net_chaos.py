"""Network chaos, survived: duplicate/reordered/corrupt delivery,
partitions, half-open stalls, capacity rejection, and the proxy CLI.

Each test builds a real archive, serves it with a
:class:`~repro.net.server.SegmentServer`, and talks to it through a
seeded :class:`~repro.net.proxy.ChaosProxy` — asserting not only that
the :class:`~repro.net.shipper.SocketShipper` gets the right bytes, but
that the faults actually *fired* (proxy counters) and were *detected*
(shipper rejection counters).  A chaos test that passes because nothing
bad happened is not a chaos test.

A shipper call is one exchange; the replica's retry loop is the only
retry on the shipping path.  Tests that drive a bare shipper through
chaos retry in :func:`retried`, a bounded loop of their own.
"""

import os
import random
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.net import (
    ChaosConfig,
    ChaosProxy,
    NetworkError,
    SegmentServer,
    SocketShipper,
    is_network_error,
)
from repro.storage.errors import ReplicationError
from repro.storage.journal import Archive, decode_group
from repro.storage.replication import StandbyReplica
from repro.storage.timemodel import VirtualClock

PAGE_SIZE = 512
SEED = int(os.environ.get("CHAOS_SEED", "20030305"))


@pytest.fixture
def archive(tmp_path):
    arch = Archive(str(tmp_path / "chaos.archive"), PAGE_SIZE)
    for sequence in range(1, 22):
        arch.append(sequence,
                    {sequence: bytes([sequence % 256]) * PAGE_SIZE})
    return arch


@pytest.fixture
def server(archive):
    with SegmentServer(archive.directory, PAGE_SIZE) as srv:
        yield srv


def make_shipper(address, **options):
    options.setdefault("page_size", PAGE_SIZE)
    options.setdefault("connect_timeout", 0.5)
    options.setdefault("read_timeout", 0.5)
    return SocketShipper(address, **options)


def retried(call, attempts=11):
    """``call()``, re-issued on NetworkError up to ``attempts`` times in
    all, after a doubling pause capped at 20 ms — what a replica with
    ``max_retries=attempts - 1`` would do, minus the jitter.  The pause
    paces the retries as the replica's backoff does; the proxy frees a
    torn-down connection's server slot at once (see
    :class:`TestProxyTeardown`), so it is not needed to dodge "busy"."""
    for attempt in range(attempts):
        try:
            return call()
        except NetworkError:
            if attempt == attempts - 1:
                raise
            time.sleep(min(0.002 * 2 ** attempt, 0.02))


class TestChaosSurvival:
    def test_duplicates_reorders_and_corruption_never_reach_the_caller(
            self, server):
        """The headline property: under heavy frame misdelivery every
        fetched segment is the right one, bit-for-bit — bad frames are
        rejected by CRC or sequence, never returned."""
        config = ChaosConfig(duplicate_rate=0.4, reorder_rate=0.4,
                             corrupt_rate=0.25)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address)
            for sequence in range(1, 22):
                blob = retried(lambda: shipper.fetch(sequence))
                decoded, records = decode_group(blob, PAGE_SIZE)
                assert decoded == sequence
                assert records[sequence] == (
                    bytes([sequence % 256]) * PAGE_SIZE)
            shipper.close()
            # The chaos fired...
            assert proxy.stats.frames_duplicated > 0
            assert proxy.stats.frames_reordered > 0
            assert proxy.stats.frames_corrupted > 0
            # ...was detected for the right reasons...
            causes = shipper.stats.rejections_by_cause
            assert causes.get("crc", 0) > 0
            assert causes.get("sequence", 0) > 0
            assert shipper.stats.frames_rejected == sum(causes.values())
            # ...and every fetch accepted exactly one validated response.
            assert shipper.stats.responses == 21

    def test_connection_drops_are_survived_by_reconnect(self, server):
        config = ChaosConfig(drop_rate=0.3)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address)
            assert retried(shipper.latest_sequence) == 21
            for sequence in (1, 10, 21):
                assert retried(lambda: shipper.fetch(sequence)) is not None
            shipper.close()
            assert proxy.stats.dropped_connections > 0
            assert shipper.stats.reconnects > 0

    def test_half_open_stall_trips_the_read_timeout(self, server):
        """A peer that accepts and then says nothing must cost one read
        timeout, not a hung thread."""
        config = ChaosConfig(stall_rate=1.0, stall_seconds=1.0)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, read_timeout=0.1)
            with pytest.raises(NetworkError):
                retried(shipper.latest_sequence, attempts=2)
            assert shipper.stats.timeouts >= 1
            assert shipper.stats.requests == 2   # the whole budget spent
            shipper.close()

    def test_slow_link_still_delivers(self, server):
        config = ChaosConfig(latency_seconds=0.02, jitter_seconds=0.01,
                             bandwidth_bytes_per_sec=64 * 1024)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, read_timeout=2.0)
            assert shipper.fetch(5) is not None
            shipper.close()
            assert proxy.stats.frames_delayed > 0


class TestPartition:
    def test_refuse_partition_raises_then_heals(self, server):
        with ChaosProxy(server.address, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address)
            assert shipper.latest_sequence() == 21
            proxy.partition(mode="refuse")
            with pytest.raises(NetworkError):
                retried(lambda: shipper.fetch(1), attempts=3)
            assert proxy.stats.refused_connections > 0
            proxy.heal()
            assert shipper.fetch(1) is not None   # service restored
            shipper.close()

    def test_blackhole_partition_is_caught_by_read_timeout(self, server):
        with ChaosProxy(server.address, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, read_timeout=0.1)
            assert shipper.latest_sequence() == 21
            proxy.partition(mode="blackhole")
            with pytest.raises(NetworkError):
                retried(lambda: shipper.fetch(1), attempts=2)
            assert proxy.stats.blackholed_connections > 0
            proxy.heal()
            assert shipper.fetch(1) is not None
            shipper.close()


class TestServerRobustness:
    def test_capacity_bound_answers_busy_instead_of_ghosting(self,
                                                             archive):
        with SegmentServer(archive.directory, PAGE_SIZE,
                           max_connections=0) as srv:
            shipper = make_shipper(srv.address)
            with pytest.raises(NetworkError, match="busy"):
                retried(shipper.latest_sequence, attempts=2)
            assert shipper.stats.server_busy >= 1
            assert srv.stats.rejected_connections >= 1
            shipper.close()

    def test_server_survives_garbage_and_keeps_serving(self, server):
        import socket

        sock = socket.create_connection(server.address, timeout=1.0)
        try:
            sock.sendall(b"\x10\x00\x00\x00" + b"not a frame at all..")
        finally:
            sock.close()
        shipper = make_shipper(server.address)
        assert shipper.latest_sequence() == 21   # still alive
        shipper.close()
        # The handler thread that got the garbage races this one.
        give_up_at = time.monotonic() + 5.0
        while not server.stats.bad_frames and time.monotonic() < give_up_at:
            time.sleep(0.01)
        assert server.stats.bad_frames >= 1

    def test_server_keeps_serving_a_dead_writers_archive(self, archive):
        """Segments are immutable files: the server needs nothing from
        the primary process, so a partitioned standby can finish catching
        up from an archive whose writer is gone."""
        with SegmentServer(archive.directory, PAGE_SIZE) as srv:
            shipper = make_shipper(srv.address)
            # No primary exists at all here — only the directory.
            assert shipper.latest_sequence() == 21
            assert shipper.fetch(21) is not None
            shipper.close()


class TestProxyTeardown:
    def test_a_closed_client_frees_its_server_slot_at_once(self, server):
        """Back-to-back connect, poll and close through a healthy proxy
        never meet a full server: when the client goes, the proxy shuts
        both legs down at once, so the server sees the close before the
        next connection arrives."""
        with ChaosProxy(server.address, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address)
            busy = 0
            for _ in range(200):
                try:
                    assert shipper.latest_sequence() == 21
                except NetworkError:
                    busy += 1
                shipper.close()
            assert busy == 0
            assert shipper.stats.server_busy == 0


class TestReplicaOverChaos:
    def test_standby_catches_up_through_misdelivery(self, tmp_path):
        """End to end: a StandbyReplica tails a chaos-proxied socket
        transport and converges to the primary's exact state."""
        from repro.core.database import XmlDatabase

        path = str(tmp_path / "primary.db")
        archive_dir = str(tmp_path / "primary.archive")
        db = XmlDatabase.create(path, page_size=PAGE_SIZE,
                                durability="archive",
                                archive_dir=archive_dir)
        for index in range(6):
            db.add_document("<doc><n>%d</n></doc>" % index,
                            name="doc-%d" % index)
            db.flush()
        head = db.commit_sequence
        db.close()

        config = ChaosConfig(duplicate_rate=0.3, corrupt_rate=0.2,
                             reorder_rate=0.2)
        with SegmentServer(archive_dir, PAGE_SIZE) as srv, \
                ChaosProxy(srv.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address)
            # 55 exchanges per operation: 11 per call times 5 calls.
            replica = StandbyReplica(
                str(tmp_path / "standby.db"), shipper,
                page_size=PAGE_SIZE, max_retries=54, backoff_seconds=0.001,
                max_backoff_seconds=0.01, rng=random.Random(SEED))
            applied = replica.catch_up()
            assert applied == head
            assert replica.applied_sequence == head
            names = [n for _i, n in replica.documents()]
            assert names == ["doc-%d" % i for i in range(6)]
            assert replica.stall_reason is None
            replica.close()



class TestOneRetryLoop:
    """The replica's retry loop is the only one: a shipper call is one
    exchange, so the replica's budget and its interrupt bound the wire."""

    def test_a_failed_poll_costs_max_retries_plus_one_exchanges(
            self, tmp_path):
        # A bound socket that never listens: every connect is refused.
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        try:
            shipper = make_shipper(closed.getsockname())
            clock = VirtualClock()
            replica = StandbyReplica(
                str(tmp_path / "standby.db"), shipper, page_size=PAGE_SIZE,
                max_retries=4, rng=random.Random(SEED), clock=clock)
            with pytest.raises(ReplicationError) as excinfo:
                replica.catch_up()
            assert is_network_error(excinfo.value)
            assert shipper.stats.requests == replica.max_retries + 1
            assert replica.stats.retries_by_cause == {
                "poll": replica.max_retries + 1}
            assert len(clock.sleeps) == replica.max_retries
            replica.close()
        finally:
            closed.close()

    def test_interrupt_stops_an_inflight_catch_up_after_its_exchange(
            self, tmp_path):
        """A listener that accepts and never answers: the in-flight
        exchange runs out its read timeout, and the interrupted replica
        issues no further one."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(4)   # the kernel completes the handshake; no reply
        try:
            shipper = make_shipper(silent.getsockname(), read_timeout=0.5)
            replica = StandbyReplica(
                str(tmp_path / "standby.db"), shipper, page_size=PAGE_SIZE,
                max_retries=100, backoff_seconds=0.05,
                rng=random.Random(SEED))
            outcome = {}
            tailer = threading.Thread(
                target=lambda: outcome.update(applied=replica.catch_up()))
            tailer.start()
            give_up = time.monotonic() + 5.0
            while (shipper.stats.requests < 1
                    and time.monotonic() < give_up):
                time.sleep(0.005)
            replica.interrupt()
            tailer.join(5.0)
            assert not tailer.is_alive()
            assert outcome["applied"] == 0
            assert shipper.stats.requests == 1
            assert shipper.stats.timeouts == 1
            replica.close()
        finally:
            silent.close()

class TestProxyCli:
    def test_cli_proxies_real_traffic_and_reports_stats(self, archive):
        """``python -m repro.net.proxy`` end to end: spawn it against a
        live server, fetch through it, and check the stats JSON."""
        with SegmentServer(archive.directory, PAGE_SIZE) as srv:
            host, port = srv.address
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.net.proxy",
                 "--upstream", "%s:%d" % (host, port),
                 "--listen", "127.0.0.1:0",
                 "--seed", str(SEED),
                 "--duplicate-rate", "0.3",
                 "--max-seconds", "30"],
                stdout=subprocess.PIPE, env=env, text=True)
            try:
                banner = proc.stdout.readline()
                match = re.match(
                    r"chaos proxy listening on ([\d.]+):(\d+)", banner)
                assert match, "unexpected banner: %r" % banner
                proxy_addr = (match.group(1), int(match.group(2)))
                shipper = make_shipper(proxy_addr)
                assert retried(shipper.latest_sequence) == 21
                for sequence in range(1, 8):
                    assert retried(
                        lambda: shipper.fetch(sequence)) is not None
                shipper.close()
            finally:
                proc.terminate()
                out, _err = proc.communicate(timeout=10)
        import json

        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["connections"] >= 1
        assert stats["frames_forwarded"] >= 8
