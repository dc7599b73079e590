"""One conformance suite, every LogShipper transport.

The :class:`~repro.storage.replication.LogShipper` contract is what lets
:class:`~repro.storage.replication.StandbyReplica` not care whether its
segments come from a shared directory or across a socket.  This module
pins that contract as a shared test suite — ``ShipperContract`` — run
against **both** built-in transports:

* :class:`~repro.storage.replication.LocalDirShipper` (shared filesystem),
* :class:`~repro.net.shipper.SocketShipper` (TCP, via a live
  :class:`~repro.net.server.SegmentServer`).

A future transport gets its conformance run by adding one subclass with
one ``shipper_for`` override.
"""

import contextlib

import pytest

from repro.net import SegmentServer, SocketShipper
from repro.storage.journal import Archive, decode_group
from repro.storage.replication import LocalDirShipper

PAGE_SIZE = 512


def append_segment(archive, sequence):
    """One commit group whose page image encodes its sequence."""
    archive.append(sequence, {sequence: bytes([sequence % 256]) * PAGE_SIZE})


class ShipperContract:
    """The behavior every LogShipper transport must exhibit.

    Subclasses provide :meth:`shipper_for` — a context manager yielding
    a connected shipper over the given archive.
    """

    def shipper_for(self, archive):
        raise NotImplementedError

    @pytest.fixture
    def archive(self, tmp_path):
        return Archive(str(tmp_path / "conformance.archive"), PAGE_SIZE)

    def test_empty_stream_has_no_head(self, archive):
        with self.shipper_for(archive) as shipper:
            assert shipper.latest_sequence() is None

    def test_latest_sequence_is_monotonic_and_tracks_the_head(self,
                                                              archive):
        with self.shipper_for(archive) as shipper:
            seen = 0
            for sequence in (1, 2, 3, 4):
                append_segment(archive, sequence)
                head = shipper.latest_sequence()
                assert head == sequence
                assert head >= seen    # never goes backward
                seen = head

    def test_fetch_is_idempotent(self, archive):
        append_segment(archive, 1)
        append_segment(archive, 2)
        with self.shipper_for(archive) as shipper:
            first = shipper.fetch(2)
            second = shipper.fetch(2)
            assert first == second    # identical bytes, not just equal len
            sequence, records = decode_group(first, PAGE_SIZE)
            assert sequence == 2      # and they decode to the right group

    def test_fetch_past_head_returns_none(self, archive):
        append_segment(archive, 1)
        with self.shipper_for(archive) as shipper:
            assert shipper.fetch(99) is None
            # Asking for a missing segment must not poison the session.
            assert shipper.fetch(1) is not None

    def test_fetch_on_empty_stream_returns_none(self, archive):
        with self.shipper_for(archive) as shipper:
            assert shipper.fetch(1) is None

    def test_empty_stream_has_no_retention_floor(self, archive):
        with self.shipper_for(archive) as shipper:
            assert shipper.oldest_sequence() is None

    def test_oldest_sequence_tracks_the_retention_floor(self, archive):
        for sequence in (1, 2, 3, 4):
            append_segment(archive, sequence)
        with self.shipper_for(archive) as shipper:
            assert shipper.oldest_sequence() == 1
            archive.prune_upto(2)
            assert shipper.oldest_sequence() == 3

    def test_segment_pruned_at_source_is_distinguishable(self, archive):
        """The pruned-vs-lost discrimination the re-seed path rests on:
        a fetch below the retention floor returns None AND the floor is
        above the requested sequence — so the standby knows the segment
        is *gone by policy*, not lost in transport."""
        for sequence in (1, 2, 3):
            append_segment(archive, sequence)
        archive.prune_upto(2)
        with self.shipper_for(archive) as shipper:
            assert shipper.fetch(1) is None
            assert shipper.fetch(2) is None
            oldest = shipper.oldest_sequence()
            assert oldest == 3
            assert oldest > 2          # pruned: floor above the request
            assert shipper.fetch(3) is not None   # retained still serves
            assert shipper.latest_sequence() == 3

    def test_fully_pruned_stream_reports_no_floor(self, archive):
        append_segment(archive, 1)
        append_segment(archive, 2)
        archive.prune_upto(2)
        with self.shipper_for(archive) as shipper:
            assert shipper.oldest_sequence() is None
            assert shipper.fetch(1) is None

    def test_context_manager_connects_and_close_is_idempotent(self,
                                                              archive):
        append_segment(archive, 1)
        with self.shipper_for(archive) as shipper:
            assert shipper.latest_sequence() == 1
            shipper.close()
            shipper.close()   # double close must be safe


class TestLocalDirShipperContract(ShipperContract):
    @contextlib.contextmanager
    def shipper_for(self, archive):
        yield LocalDirShipper(archive.directory, PAGE_SIZE)


class TestSocketShipperContract(ShipperContract):
    @contextlib.contextmanager
    def shipper_for(self, archive):
        server = SegmentServer(archive.directory, PAGE_SIZE).start()
        shipper = SocketShipper(server.address, page_size=PAGE_SIZE)
        try:
            yield shipper
        finally:
            shipper.close()
            server.stop()

    def test_close_then_reuse_reconnects_transparently(self, archive):
        """Socket-specific sharpening of the contract: a closed shipper
        is not dead, the next call reconnects — which is what makes any
        fault safe to handle by tearing the connection down."""
        append_segment(archive, 1)
        with self.shipper_for(archive) as shipper:
            assert shipper.latest_sequence() == 1
            shipper.close()
            assert not shipper.connected
            assert shipper.latest_sequence() == 1
            assert shipper.stats.reconnects == 1
