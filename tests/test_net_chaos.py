"""Network chaos, survived: duplicate/reordered/corrupt delivery,
partitions, half-open stalls, capacity rejection, and the proxy CLI.

Each test builds a real archive, serves it with a
:class:`~repro.net.server.SegmentServer`, and talks to it through a
seeded :class:`~repro.net.proxy.ChaosProxy` — asserting not only that
the :class:`~repro.net.shipper.SocketShipper` gets the right bytes, but
that the faults actually *fired* (proxy counters) and were *detected*
(shipper rejection counters).  A chaos test that passes because nothing
bad happened is not a chaos test.
"""

import os
import random
import re
import subprocess
import sys
import time

import pytest

from repro.net import (
    ChaosConfig,
    ChaosProxy,
    NetworkError,
    SegmentServer,
    SocketShipper,
)
from repro.storage.journal import Archive, decode_group
from repro.storage.replication import StandbyReplica

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
    options.setdefault("rng", random.Random(SEED))
    options.setdefault("connect_timeout", 0.5)
    options.setdefault("read_timeout", 0.5)
    options.setdefault("backoff_seconds", 0.002)
    options.setdefault("max_backoff_seconds", 0.02)
    return SocketShipper(address, **options)


class TestChaosSurvival:
    def test_duplicates_reorders_and_corruption_never_reach_the_caller(
            self, server):
        """The headline property: under heavy frame misdelivery every
        fetched segment is the right one, bit-for-bit — bad frames are
        rejected by CRC or sequence, never returned."""
        config = ChaosConfig(duplicate_rate=0.4, reorder_rate=0.4,
                             corrupt_rate=0.25)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, max_retries=10)
            for sequence in range(1, 22):
                blob = shipper.fetch(sequence)
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
            # ...and never exhausted the retry budget.
            assert shipper.stats.give_ups == 0

    def test_connection_drops_are_survived_by_reconnect(self, server):
        config = ChaosConfig(drop_rate=0.3)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, max_retries=10)
            assert shipper.latest_sequence() == 21
            for sequence in (1, 10, 21):
                assert shipper.fetch(sequence) is not None
            shipper.close()
            assert proxy.stats.dropped_connections > 0
            assert shipper.stats.reconnects > 0

    def test_half_open_stall_trips_the_read_timeout(self, server):
        """A peer that accepts and then says nothing must cost one read
        timeout, not a hung thread."""
        config = ChaosConfig(stall_rate=1.0, stall_seconds=1.0)
        with ChaosProxy(server.address, config=config, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, read_timeout=0.1,
                                   max_retries=1)
            with pytest.raises(NetworkError):
                shipper.latest_sequence()
            assert shipper.stats.timeouts >= 1
            assert shipper.stats.give_ups == 1
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
            shipper = make_shipper(proxy.address, max_retries=2)
            assert shipper.latest_sequence() == 21
            proxy.partition(mode="refuse")
            with pytest.raises(NetworkError):
                shipper.fetch(1)
            assert proxy.stats.refused_connections > 0
            proxy.heal()
            assert shipper.fetch(1) is not None   # service restored
            shipper.close()

    def test_blackhole_partition_is_caught_by_read_timeout(self, server):
        with ChaosProxy(server.address, seed=SEED) as proxy:
            shipper = make_shipper(proxy.address, read_timeout=0.1,
                                   max_retries=1)
            assert shipper.latest_sequence() == 21
            proxy.partition(mode="blackhole")
            with pytest.raises(NetworkError):
                shipper.fetch(1)
            assert proxy.stats.blackholed_connections > 0
            proxy.heal()
            assert shipper.fetch(1) is not None
            shipper.close()


class TestServerRobustness:
    def test_capacity_bound_answers_busy_instead_of_ghosting(self,
                                                             archive):
        with SegmentServer(archive.directory, PAGE_SIZE,
                           max_connections=0) as srv:
            shipper = make_shipper(srv.address, max_retries=1)
            with pytest.raises(NetworkError, match="busy"):
                shipper.latest_sequence()
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
            shipper = make_shipper(proxy.address, max_retries=10)
            replica = StandbyReplica(
                str(tmp_path / "standby.db"), shipper,
                page_size=PAGE_SIZE, backoff_seconds=0.001,
                max_backoff_seconds=0.01, rng=random.Random(SEED))
            applied = replica.catch_up()
            assert applied == head
            assert replica.applied_sequence == head
            names = [n for _i, n in replica.documents()]
            assert names == ["doc-%d" % i for i in range(6)]
            assert replica.stall_reason is None
            replica.close()


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
                shipper = make_shipper(proxy_addr, max_retries=10)
                assert shipper.latest_sequence() == 21
                for sequence in range(1, 8):
                    assert shipper.fetch(sequence) is not None
                shipper.close()
            finally:
                proc.terminate()
                out, _err = proc.communicate(timeout=10)
        import json

        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["connections"] >= 1
        assert stats["frames_forwarded"] >= 8
