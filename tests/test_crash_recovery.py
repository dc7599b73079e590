"""Crash-recovery sweep: kill the engine at every physical write point.

The central claim of the commit protocol (stage -> segment -> apply) is that
a crash at *any* physical page write leaves the database file in some
committed state — never a torn mixture.  These tests enforce that claim
exhaustively: a probe run counts every physical write a fixed workload
performs, then the workload is re-run once per write with a
:class:`FaultInjectingDisk` killing (and possibly tearing) exactly that
write, and the file is reopened and checked.

Both durable modes walk the one commit path and differ only in whether an
applied segment is dropped (``"journal"``) or kept (``"archive"``), so the
crash classes take ``durability`` as a class attribute and an ``...Archive``
subclass re-runs every case under the other retain policy.

The sweep is seeded: set ``CHAOS_SEED`` to reproduce a CI failure locally.
"""

import os
import random
import shutil

import pytest

from repro.core.database import XmlDatabase
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDisk
from repro.storage.errors import ChecksumError
from repro.storage.faults import CrashPoint, FaultInjectingDisk
from repro.storage.journal import encode_group, segment_name

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))

PAGE_SIZE = 512
BUFFER_PAGES = 32

XML_A = (
    "<dept><team><name>db</name>"
    "<member><name>ada</name><email>a@x</email></member>"
    "<member><name>bob</name></member></team></dept>"
)
XML_B = (
    "<dept><team><name>ir</name>"
    "<member><name>cyd</name><email>c@x</email></member>"
    "</team><note>restructure</note></dept>"
)

#: Document-name sets a recovered database may legally show.  The workload
#: commits at each flush/close, so recovery must land exactly on one of
#: these boundaries — anything else is a torn commit.
VALID_STATES = ([], ["a"], ["a", "b"], ["b"])


def make_base(tmp_path):
    """A committed, empty database file the sweep clones for every run."""
    base = str(tmp_path / "base.db")
    XmlDatabase.create(path=base, page_size=PAGE_SIZE,
                       buffer_pages=BUFFER_PAGES).close()
    return base


def open_wrapped(path, durability="journal", **fault_options):
    """The base database reopened behind a fault-injecting wrapper."""
    inner = FileDisk(path, page_size=PAGE_SIZE, durability=durability)
    disk = FaultInjectingDisk(inner, **fault_options)
    db = XmlDatabase.open(disk=disk, page_size=PAGE_SIZE,
                          buffer_pages=BUFFER_PAGES)
    return db, disk


def run_workload(db):
    """Fixed mutation sequence with three commit points (flush x2, close)."""
    db.add_document(XML_A, name="a")
    db.flush()
    db.add_document(XML_B, name="b")
    db.flush()
    db.remove_document(1)
    db.close()


def assert_consistent(path, durability="journal"):
    """Reopen ``path`` plainly and check every durability invariant."""
    db = XmlDatabase.open(path, page_size=PAGE_SIZE,
                          buffer_pages=BUFFER_PAGES, durability=durability)
    try:
        stats = db.recovery_stats
        assert stats is not None
        names = [name for _id, name in db.documents()]
        assert names in [list(state) for state in VALID_STATES], names
        # Every stored tree must decode and satisfy the XR-tree invariants.
        db.verify()
        for tag in db.tags():
            assert db.entries_for_tag(tag)
        return names, stats
    finally:
        db.close()


class TestCrashSweep:
    durability = "journal"

    def test_every_physical_write_is_a_safe_crash_point(self, tmp_path):
        rng = random.Random(SEED)
        base = make_base(tmp_path)

        # Probe run: count the workload's physical page writes.
        probe = str(tmp_path / "probe.db")
        shutil.copyfile(base, probe)
        db, disk = open_wrapped(probe, self.durability)
        run_workload(db)
        total = disk.op_counts["physical-write"]
        assert total > 10  # the workload must be worth sweeping

        replayed = discarded = 0
        for kill in range(1, total + 1):
            path = str(tmp_path / "run.db")
            shutil.copyfile(base, path)
            # Segments a previous run left behind belong to another file.
            for segments in (path + ".wal", path + ".archive"):
                shutil.rmtree(segments, ignore_errors=True)
            torn = rng.choice([None, 1, 7, rng.randrange(PAGE_SIZE)])
            db, disk = open_wrapped(path, self.durability,
                                    kill_after=kill, torn_bytes=torn)
            with pytest.raises(CrashPoint):
                run_workload(db)
            disk.abort()
            _names, stats = assert_consistent(path, self.durability)
            replayed += stats.replayed_groups
            discarded += stats.discarded_groups

        # The sweep must actually exercise both recovery paths.
        assert replayed > 0
        assert discarded > 0

    def test_unkilled_workload_reaches_final_state(self, tmp_path):
        base = make_base(tmp_path)
        path = str(tmp_path / "clean.db")
        shutil.copyfile(base, path)
        db, disk = open_wrapped(path, self.durability)
        run_workload(db)
        names, stats = assert_consistent(path, self.durability)
        assert names == ["b"]
        assert stats.discarded_groups == 0
        # A kept newest segment is replayed (idempotently) on every open;
        # a dropped one leaves nothing to look at.
        assert stats.clean == (self.durability == "journal")
        if self.durability == "journal":
            assert os.listdir(path + ".wal") == []  # retain nothing


class TestCrashSweepArchive(TestCrashSweep):
    durability = "archive"


class TestBitRot:
    def test_every_flipped_bit_is_caught_as_checksum_error(self, tmp_path):
        rng = random.Random(SEED + 1)
        path = str(tmp_path / "rot.db")
        db = XmlDatabase.create(path=path, page_size=PAGE_SIZE,
                                buffer_pages=BUFFER_PAGES)
        db.add_document(XML_A, name="a")
        db.add_document(XML_B, name="b")
        db.close()

        disk = FaultInjectingDisk(FileDisk(path, page_size=PAGE_SIZE))
        try:
            live = sorted(disk.inner._live)
            assert len(live) > 5
            pool = BufferPool(disk, capacity=4)
            for page_id in live:
                pristine = disk.peek(page_id)
                bit = rng.randrange(PAGE_SIZE * 8)
                disk.flip_bit(page_id, bit)
                with pytest.raises(ChecksumError) as excinfo:
                    pool.fetch(page_id)
                assert excinfo.value.page_id == page_id
                disk.poke(page_id, pristine)  # restore for the next page
                pool.clear()
            # With every flip restored the database is intact again.
        finally:
            disk.close()
        db = XmlDatabase.open(path, page_size=PAGE_SIZE,
                              buffer_pages=BUFFER_PAGES)
        assert [name for _id, name in db.documents()] == ["a", "b"]
        db.verify()
        db.close()


class TestJournalRecoveryPaths:
    def _committed_v1(self, tmp_path):
        path = str(tmp_path / "j.db")
        inner = FileDisk(path, page_size=256)
        disk = FaultInjectingDisk(inner)
        page = disk.allocate()
        disk.write(page, b"v1")
        inner.sync()  # commit 1: 2 segment records + 2 applies
        return path, inner, disk, page

    def test_crash_during_apply_replays_group(self, tmp_path):
        path, inner, disk, page = self._committed_v1(tmp_path)
        disk.write(page, b"v2")
        disk.kill_after = disk.op_counts["physical-write"] + 3  # 1st apply
        with pytest.raises(CrashPoint):
            inner.sync()
        disk.abort()
        with FileDisk(path, page_size=256) as reopened:
            assert reopened.recovery_stats.replayed_groups == 1
            assert reopened.recovery_stats.replayed_pages >= 2
            assert reopened.read(page).startswith(b"v2")

    def test_torn_journal_write_discards_group(self, tmp_path):
        path, inner, disk, page = self._committed_v1(tmp_path)
        disk.write(page, b"v2")
        disk.kill_after = disk.op_counts["physical-write"] + 1  # segment
        disk.torn_bytes = 3
        with pytest.raises(CrashPoint):
            inner.sync()
        disk.abort()
        with FileDisk(path, page_size=256) as reopened:
            assert reopened.recovery_stats.discarded_groups == 1
            assert reopened.recovery_stats.replayed_groups == 0
            assert reopened.read(page).startswith(b"v1")

    def test_dead_wrapper_refuses_everything(self, tmp_path):
        path, inner, disk, page = self._committed_v1(tmp_path)
        disk.crash_now()
        for operation in (lambda: disk.read(page),
                          lambda: disk.write(page, b"x"),
                          lambda: disk.allocate(),
                          lambda: disk.free(page),
                          lambda: disk.sync()):
            with pytest.raises(CrashPoint):
                operation()
        disk.close()  # must abort, not commit
        with FileDisk(path, page_size=256) as reopened:
            assert reopened.read(page).startswith(b"v1")


class TestFreeListPersistence:
    def test_freed_pages_recycle_across_reopen(self, tmp_path):
        path = str(tmp_path / "f.db")
        with FileDisk(path, page_size=128) as disk:
            ids = [disk.allocate() for _ in range(6)]
            disk.free(ids[1])
            disk.free(ids[4])
        with FileDisk(path, page_size=128) as disk:
            assert disk.recovery_stats.free_pages_recovered == 2
            reused = {disk.allocate(), disk.allocate()}
            assert reused == {ids[1], ids[4]}
            fresh = disk.allocate()
            assert fresh not in ids


class TestJournalDirectoryDurability:
    @pytest.fixture
    def synced_dirs(self, monkeypatch):
        """Every directory fsynced through the segment store, in order."""
        import repro.storage.journal as journal

        synced = []
        real = journal.fsync_directory

        def recording(directory):
            synced.append(os.path.abspath(directory))
            real(directory)

        monkeypatch.setattr(journal, "fsync_directory", recording)
        return synced

    def test_first_commit_fsyncs_parent_directory_once(self, tmp_path,
                                                       synced_dirs):
        path = str(tmp_path / "d.db")
        inner = FileDisk(path, page_size=256)
        disk = FaultInjectingDisk(inner)
        # Creating the segment directory made its own entry durable.
        assert synced_dirs == [str(tmp_path)]
        assert inner._archive.dir_fsyncs == 1
        page = disk.allocate()
        disk.write(page, b"v1")
        inner.sync()
        disk.write(page, b"v2")
        inner.sync()
        # Each commit makes its segment's entry durable; the parent
        # directory is never paid for again.
        assert synced_dirs == [str(tmp_path)] + [path + ".wal"] * 2
        assert inner._archive.dir_fsyncs == 3
        disk.close()

    def test_preexisting_journal_needs_no_directory_fsync(self, tmp_path,
                                                          synced_dirs):
        path = str(tmp_path / "d.db")
        with FileDisk(path, page_size=256) as disk:
            page = disk.allocate()
            disk.write(page, b"v1")
        del synced_dirs[:]
        # The segment directory survives close (emptied), so its entry in
        # the parent is already durable on reopen.
        with FileDisk(path, page_size=256) as disk:
            disk.write(page, b"v2")
            disk.sync()
            assert synced_dirs == [path + ".wal"]
            assert disk._archive.dir_fsyncs == 1

    def test_sync_costs_at_most_three_fsyncs(self, tmp_path, monkeypatch):
        # Segment file, segment directory, data file: none may go, and
        # dropping the segment must not add a fourth.  The single-file
        # journal paid the same count (journal, data file, truncate).
        path = str(tmp_path / "d.db")
        with FileDisk(path, page_size=256) as disk:
            page = disk.allocate()
            disk.write(page, b"v1")
            disk.sync()
            calls = []
            real = os.fsync

            def counting_fsync(fd):
                calls.append(fd)
                real(fd)

            monkeypatch.setattr(os, "fsync", counting_fsync)
            disk.write(page, b"v2")
            disk.sync()
            monkeypatch.undo()
            assert len(calls) == 3

    def test_crash_before_dir_fsync_still_recovers(self, tmp_path):
        # A torn group written to a never-synced segment file is the worst
        # case the dir fsync guards against: recovery must fall back to
        # the pre-commit state, never half-apply.
        path = str(tmp_path / "d.db")
        inner = FileDisk(path, page_size=256)
        disk = FaultInjectingDisk(inner)
        page = disk.allocate()
        disk.write(page, b"v1")
        inner.sync()
        disk.write(page, b"v2")
        disk.kill_after = disk.op_counts["physical-write"] + 1
        disk.torn_bytes = 5
        with pytest.raises(CrashPoint):
            inner.sync()
        disk.abort()
        with FileDisk(path, page_size=256) as reopened:
            assert reopened.read(page).startswith(b"v1")


class TestTornGroupAccounting:
    durability = "journal"

    def test_torn_trailing_group_is_counted_not_fatal(self, tmp_path):
        path = str(tmp_path / "t.db")
        inner = FileDisk(path, page_size=256, durability=self.durability)
        disk = FaultInjectingDisk(inner)
        page = disk.allocate()
        disk.write(page, b"v1")
        inner.sync()
        disk.write(page, b"v2")
        disk.kill_after = disk.op_counts["physical-write"] + 1
        disk.torn_bytes = 4
        with pytest.raises(CrashPoint):
            inner.sync()
        disk.abort()
        with FileDisk(path, page_size=256,
                      durability=self.durability) as reopened:
            assert reopened.recovery_stats.torn_groups == 1
            assert reopened.recovery_stats.discarded_groups == 1
            assert reopened.read(page).startswith(b"v1")

    def test_torn_groups_surface_in_database_stats_and_metrics(self, tmp_path):
        path = str(tmp_path / "t.db")
        db = XmlDatabase.create(path, page_size=PAGE_SIZE,
                                buffer_pages=BUFFER_PAGES,
                                durability=self.durability)
        db.add_document(XML_A, name="a")
        db.close()
        # Fake the torn tail of a crashed commit — the newest segment:
        # valid magic, garbage body.
        segments = path + (".wal" if self.durability == "journal"
                           else ".archive")
        with open(os.path.join(segments, segment_name(10 ** 6)),
                  "wb") as handle:
            handle.write(b"XRJL" + b"\x07" * 30)
        db = XmlDatabase.open(path, page_size=PAGE_SIZE,
                              buffer_pages=BUFFER_PAGES,
                              durability=self.durability)
        try:
            assert db.recovery_stats.torn_groups == 1
            assert db.stats()["recovery"]["torn_groups"] == 1
            assert "repro_journal_torn_groups 1" in db.metrics_text()
            assert [n for _i, n in db.documents()] == ["a"]
        finally:
            db.close()


class TestTornGroupAccountingArchive(TestTornGroupAccounting):
    durability = "archive"


class TestLegacyJournalFile:
    """A ``<path>.journal`` left by a crashed pre-segment process holds the
    same group encoding: either durable mode replays it once and removes
    it, instead of stranding or refusing it."""

    @pytest.mark.parametrize("durability", ["journal", "archive"])
    def test_pending_legacy_group_is_replayed_and_removed(self, tmp_path,
                                                          durability):
        path = str(tmp_path / "l.db")
        with FileDisk(path, page_size=256) as disk:
            page = disk.allocate()
            disk.write(page, b"v1")
            disk.sync()
            disk.write(page, b"v2")
            # What the old journal held when its process died before the
            # apply: the next group, complete, the data file untouched.
            disk._commit_seq += 1
            sequence = disk.commit_sequence
            records = {0: disk._superblock_image(), page: disk.read(page)}
            disk.abort()
        body, _crash = encode_group(sequence, records, 256)
        with open(path + ".journal", "wb") as handle:
            handle.write(body)
        with FileDisk(path, page_size=256, durability=durability) as reopened:
            assert reopened.recovery_stats.replayed_groups == 1
            assert reopened.recovery_stats.discarded_groups == 0
            assert reopened.commit_sequence == sequence
            assert reopened.read(page).startswith(b"v2")
            assert not os.path.exists(path + ".journal")

    def test_archive_open_drains_a_journal_mode_segment(self, tmp_path):
        # The same promise for the current layout: a journal-mode process
        # that died mid-apply is recovered by an archive-mode successor.
        path = str(tmp_path / "x.db")
        inner = FileDisk(path, page_size=256)
        disk = FaultInjectingDisk(inner)
        page = disk.allocate()
        disk.write(page, b"v1")
        inner.sync()
        disk.write(page, b"v2")
        disk.kill_after = disk.op_counts["physical-write"] + 3  # 1st apply
        with pytest.raises(CrashPoint):
            inner.sync()
        disk.abort()
        with FileDisk(path, page_size=256, durability="archive") as reopened:
            assert reopened.recovery_stats.replayed_groups == 1
            assert reopened.read(page).startswith(b"v2")
            assert os.listdir(path + ".wal") == []
