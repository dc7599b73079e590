"""Warm-standby replication: tailing, retry, divergence, failover chaos.

The failover sweep is the replication analogue of the crash-recovery
sweep: a probe run counts every physical page write of an archive-mode
primary workload, then for each of up to 50 seeded crash points the
primary is killed exactly there and a standby (bootstrapped from a hot
backup taken before the workload) must catch up from the archive and
promote with **zero acknowledged-commit loss**.  Set ``CHAOS_SEED`` to
reproduce a CI failure locally.
"""

import os
import random
import shutil
import threading
import time

import pytest

from repro.core.database import XmlDatabase
from repro.obs import Observability
from repro.storage.disk import FileDisk
from repro.storage.errors import (
    DivergenceError,
    ReplicationError,
    TransientIOError,
)
from repro.storage.faults import CrashPoint, FaultInjectingDisk
from repro.storage.journal import Archive
from repro.storage.replication import LocalDirShipper, StandbyReplica
from repro.storage.timemodel import SystemClock, VirtualClock

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))

PAGE_SIZE = 512
BUFFER_PAGES = 32
SWEEP_POINTS = 50

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


def make_primary(tmp_path, name="primary"):
    """A committed archive-mode primary plus a hot backup of its base."""
    path = str(tmp_path / ("%s.db" % name))
    archive_dir = str(tmp_path / ("%s.archive" % name))
    db = XmlDatabase.create(path, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES,
                            durability="archive", archive_dir=archive_dir)
    db.add_document(XML_A, name="a")
    db.flush()
    backup = str(tmp_path / ("%s.backup" % name))
    db.hot_backup(backup)
    return path, archive_dir, backup, db


def make_standby(tmp_path, archive_dir, backup, name="standby", **options):
    shipper = LocalDirShipper(archive_dir, PAGE_SIZE)
    return StandbyReplica.from_backup(
        backup, str(tmp_path / ("%s.db" % name)), shipper,
        page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES,
        backoff_seconds=0.0, **options)


class TestTailing:
    def test_standby_tracks_primary_commits(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        replica = make_standby(tmp_path, archive_dir, backup)
        assert replica.documents() == [(1, "a")]

        db.add_document(XML_B, name="b")
        db.flush()
        assert replica.stats.lag_segments == 0  # not yet polled
        applied = replica.catch_up()
        assert applied == 1
        assert replica.documents() == [(1, "a"), (2, "b")]
        assert replica.stats.lag_segments == 0
        assert replica.stats.segments_applied == 1
        # The standby serves queries through the normal engine.
        assert len(replica.query("//member/name")) == 3
        db.close()
        replica.close()

    def test_promote_returns_writable_archive_primary(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.close()
        replica = make_standby(tmp_path, archive_dir, backup)
        promoted = replica.promote()
        try:
            assert replica.promoted
            assert replica.stats.failovers == 1
            assert [n for _i, n in promoted.documents()] == ["a", "b"]
            # Failover metrics are visible through the promoted database.
            text = promoted.metrics_text()
            assert "repro_replication_failovers 1" in text
            assert "repro_replication_lag_segments 0" in text
            # The new primary writes its own history, not the old one's.
            promoted.add_document(XML_A, name="c")
            promoted.flush()
            assert promoted.archive.directory != archive_dir
        finally:
            promoted.close()
        with pytest.raises(ReplicationError, match="promoted"):
            replica.catch_up()

    def test_torn_head_segment_is_skipped_then_recovered(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        archive = Archive(archive_dir, PAGE_SIZE)
        head = archive.sequences()[-1]
        seg = archive.segment_path(head)
        pristine = open(seg, "rb").read()
        open(seg, "wb").write(pristine[:40])  # tear the head

        replica = make_standby(tmp_path, archive_dir, backup)
        assert replica.catch_up() == 0
        assert replica.stats.torn_segments_seen == 1
        assert replica.stall_reason is None  # torn head is not divergence

        open(seg, "wb").write(pristine)      # "primary restarted"
        assert replica.catch_up() == 1
        assert replica.documents() == [(1, "a"), (2, "b")]
        replica.close()

    def test_torn_head_repolls_do_not_stall_or_mark_reseed(self,
                                                           tmp_path):
        """The re-poll path: a torn *head* is re-examined on every
        catch_up — never a stall, never a re-seed — because only the
        primary's restart can resolve it (rewrite or truncate)."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        archive = Archive(archive_dir, PAGE_SIZE)
        head = archive.sequences()[-1]
        seg = archive.segment_path(head)
        pristine = open(seg, "rb").read()
        open(seg, "wb").write(pristine[:40])

        replica = make_standby(tmp_path, archive_dir, backup)
        for attempt in range(1, 4):
            assert replica.catch_up() == 0
            assert replica.stats.torn_segments_seen == attempt
            assert replica.stall_reason is None
            assert not replica.needs_reseed
        # "Restarted primary" resolves it by truncating the torn commit.
        archive.remove(head)
        assert replica.catch_up() == 0      # nothing to apply — and no stall
        assert replica.stall_reason is None
        replica.close()

    def test_pruned_at_source_marks_reseed_and_reseed_recovers(
            self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        for index in range(4):
            db.add_document(XML_B, name="b%d" % index)
            db.flush()
        # Retention outruns the standby: everything below the head gone.
        archive = Archive(archive_dir, PAGE_SIZE)
        head = archive.sequences()[-1]
        archive.prune_upto(head - 1)

        replica = make_standby(tmp_path, archive_dir, backup)
        assert replica.catch_up() == 0
        assert replica.needs_reseed
        assert replica.stats.pruned_at_source == 1
        assert "pruned" in replica.stall_reason
        # Tailing is short-circuited until the re-seed happens.
        assert replica.catch_up() == 0

        fresh = str(tmp_path / "fresh.backup")
        db.hot_backup(fresh)
        result = replica.reseed_from(fresh)
        assert result.sequence == db.commit_sequence
        assert not replica.needs_reseed
        assert replica.stall_reason is None
        assert replica.stats.reseeds == 1
        # Tailing resumes from the new base.
        db.add_document(XML_A, name="after")
        db.flush()
        assert replica.catch_up() == 1
        assert replica.applied_sequence == db.commit_sequence
        assert [n for _i, n in replica.documents()][-1] == "after"
        db.close()
        replica.close()

    def test_missing_interior_segment_without_prune_still_stalls(
            self, tmp_path):
        """The other side of the discrimination: a hole *at or above*
        the source's floor is loss/corruption, and re-seeding over it
        would paper over divergence — the replica must stall."""
        import os as _os

        path, archive_dir, backup, db = make_primary(tmp_path)
        for index in range(2):
            db.add_document(XML_B, name="b%d" % index)
            db.flush()
        db.close()
        archive = Archive(archive_dir, PAGE_SIZE)
        sequences = archive.sequences()
        _os.remove(archive.segment_path(sequences[1]))  # interior hole

        replica = make_standby(tmp_path, archive_dir, backup)
        assert replica.catch_up() in (0, 1)
        assert not replica.needs_reseed
        assert replica.stats.pruned_at_source == 0
        assert "missing below head" in replica.stall_reason
        replica.close()


def _items_xml(round_no, items=6):
    return "<site>%s</site>" % "".join(
        "<item><name>n%d-%d</name><note><name>x</name></note></item>"
        % (round_no, i) for i in range(items))


class TestStandbyReadsWriteNothing:
    def test_two_step_reads_between_applies_match_primary(self, tmp_path):
        """A multi-step path joins an intermediate result; served between
        applied commits it must neither miss rows nor touch the data file
        that ``apply_group`` owns."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        replica = make_standby(tmp_path, archive_dir, backup)
        live = []
        for round_no in range(24):
            live.append(db.add_document(_items_xml(round_no),
                                        name="d%d" % round_no))
            if len(live) > 3:
                db.remove_document(live.pop(0))
            db.flush()
            expected = db.query("//item/name").starts()
            assert expected
            assert replica.catch_up() == 1
            assert replica.applied_sequence == db.commit_sequence
            # The read database stays open across the next apply.
            assert replica.query("//item/name").starts() == expected
        assert replica.database.verify() == db.verify()
        db.close()
        replica.close()


class TestDivergence:
    def _primary_with_three_commits(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.add_document(XML_A, name="c")
        db.flush()
        db.close()
        return archive_dir, backup

    def test_sequence_gap_refuses_promotion(self, tmp_path):
        archive_dir, backup = self._primary_with_three_commits(tmp_path)
        archive = Archive(archive_dir, PAGE_SIZE)
        archive.remove(archive.sequences()[-2])  # interior gap
        replica = make_standby(tmp_path, archive_dir, backup)
        replica.catch_up()
        assert replica.stall_reason is not None
        with pytest.raises(DivergenceError, match="missing"):
            replica.promote()
        assert replica.stats.divergence_refusals == 1
        # Explicitly accepting the loss promotes at last-known-good.
        promoted = replica.promote(allow_divergence=True)
        assert [n for _i, n in promoted.documents()] == ["a"]
        promoted.close()

    def test_corrupt_interior_segment_refuses_promotion(self, tmp_path):
        archive_dir, backup = self._primary_with_three_commits(tmp_path)
        archive = Archive(archive_dir, PAGE_SIZE)
        seg = archive.segment_path(archive.sequences()[-2])
        blob = bytearray(open(seg, "rb").read())
        blob[25] ^= 0xFF  # bit rot inside the group body
        open(seg, "wb").write(bytes(blob))
        replica = make_standby(tmp_path, archive_dir, backup)
        replica.catch_up()
        with pytest.raises(DivergenceError, match="corrupt"):
            replica.promote()
        replica.close()


class TestTransientFaults:
    def _standby_with_faulty_disk(self, tmp_path, archive_dir, backup,
                                  **options):
        wrappers = []

        def factory(path, page_size):
            disk = FaultInjectingDisk(
                FileDisk(path, page_size, durability="none"))
            wrappers.append(disk)
            return disk

        replica = make_standby(tmp_path, archive_dir, backup,
                               disk_factory=factory, **options)
        return replica, wrappers[0]

    def test_transient_apply_failures_are_retried(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        replica, disk = self._standby_with_faulty_disk(
            tmp_path, archive_dir, backup)
        disk.fail_next(2, "physical-write")
        assert replica.catch_up() == 1
        assert replica.stats.transient_errors == 2
        assert replica.stats.apply_retries >= 1
        assert replica.documents() == [(1, "a"), (2, "b")]
        replica.close()

    def test_exhausted_retries_surface_replication_error(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        replica, disk = self._standby_with_faulty_disk(
            tmp_path, archive_dir, backup, max_retries=2)
        disk.fail_next(50, "physical-write")
        with pytest.raises(ReplicationError, match="after 2 retries"):
            replica.catch_up()
        # The wrapper is not dead — once faults clear, tailing resumes.
        disk.fail_next(0, "physical-write")
        assert replica.catch_up() == 1
        replica.close()


def _faulty_disk_factory(wrappers):
    def factory(path, page_size):
        disk = FaultInjectingDisk(
            FileDisk(path, page_size, durability="none"))
        wrappers.append(disk)
        return disk
    return factory


class TestRetryPolicy:
    def test_backoff_caps_and_counts_causes_in_virtual_time(self, tmp_path):
        """The retry schedule — exponential, capped, per-cause counted —
        verified end to end on a virtual clock: zero wall-clock sleeps."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        clock = VirtualClock()
        wrappers = []
        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "vt-standby.db"),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES,
            disk_factory=_faulty_disk_factory(wrappers),
            backoff_seconds=0.1, max_backoff_seconds=0.25, max_retries=6,
            backoff_jitter=0.0, clock=clock)
        wrappers[0].fail_next(4, "physical-write")
        assert replica.catch_up() == 1
        assert replica.stats.retries_by_cause == {"apply": 4}
        # 0.1 → 0.2 → 0.4 capped to 0.25 → 0.8 capped to 0.25.
        assert wrappers[0].op_counts  # faults actually fired
        assert clock.sleeps == [0.1, 0.2, 0.25, 0.25]
        assert clock.now() == pytest.approx(sum(clock.sleeps))
        assert replica.documents() == [(1, "a"), (2, "b")]
        replica.close()

    def test_backoff_jitter_spreads_sleeps_under_the_ceiling(self,
                                                             tmp_path):
        """Jittered backoff shaves each sleep by up to ``backoff_jitter``
        of itself — the cap stays a hard ceiling — and two replicas
        seeded differently do not retry in lockstep."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        schedules = []
        for seed in (1, 2):
            clock = VirtualClock()
            wrappers = []
            replica = StandbyReplica.from_backup(
                backup, str(tmp_path / ("jit-%d.db" % seed)),
                LocalDirShipper(archive_dir, PAGE_SIZE),
                page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES,
                disk_factory=_faulty_disk_factory(wrappers),
                backoff_seconds=0.1, max_backoff_seconds=0.25,
                max_retries=6, backoff_jitter=0.5,
                rng=random.Random(seed), clock=clock)
            wrappers[0].fail_next(4, "physical-write")
            assert replica.catch_up() == 1
            full = [0.1, 0.2, 0.25, 0.25]  # the un-jittered schedule
            assert len(clock.sleeps) == len(full)
            for slept, ceiling in zip(clock.sleeps, full):
                assert 0.5 * ceiling <= slept <= ceiling
            schedules.append(list(clock.sleeps))
            assert replica.documents() == [(1, "a"), (2, "b")]
            replica.close()
        assert schedules[0] != schedules[1]  # seeds de-synchronize

    def test_poll_and_ship_retries_counted_by_cause(self, tmp_path):
        class FlakyShipper(LocalDirShipper):
            poll_faults = 1
            fetch_faults = 2

            def latest_sequence(self):
                if self.poll_faults:
                    self.poll_faults -= 1
                    raise TransientIOError("poll blip")
                return super(FlakyShipper, self).latest_sequence()

            def fetch(self, sequence):
                if self.fetch_faults:
                    self.fetch_faults -= 1
                    raise TransientIOError("fetch blip")
                return super(FlakyShipper, self).fetch(sequence)

        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "flaky-standby.db"),
            FlakyShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, backoff_seconds=0.0)
        assert replica.catch_up() == 1
        assert replica.stats.retries_by_cause == {"poll": 1, "ship": 2}
        assert replica.stats.transient_errors == 3
        replica.close()


class WakeRecordingClock(SystemClock):
    """The real clock, noting for each backoff sleep whether an interrupt
    cut it short (True) or it ran its full length (False) — "never waited
    out the backoff" as an observation rather than a stopwatch reading."""

    def __init__(self):
        self.woken = []

    def sleep(self, seconds, interrupt=None):
        self.woken.append(interrupt.wait(seconds))


class TestPromoteCatchUpRace:
    def test_promote_interrupts_inflight_backoff_without_deadlock(
            self, tmp_path):
        """A catch_up stuck in a long retry backoff must yield to
        promote() immediately: the interrupted tail applies nothing after
        the promotion decision, the promoting thread never waits out the
        backoff window, and nothing deadlocks."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        wrappers = []
        clock = WakeRecordingClock()
        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "race-standby.db"),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES,
            disk_factory=_faulty_disk_factory(wrappers),
            backoff_seconds=30.0, max_backoff_seconds=30.0,
            max_retries=100, clock=clock)
        disk = wrappers[0]
        disk.fail_next(1000, "physical-write")
        outcome = {}

        def tail():
            outcome["applied"] = replica.catch_up()

        tailer = threading.Thread(target=tail)
        tailer.start()
        # Wait until the tail thread is inside its retry loop (it holds
        # the tail lock and is sleeping out a 30s backoff).
        give_up = time.monotonic() + 5.0
        while (replica.stats.transient_errors < 1
                and time.monotonic() < give_up):
            time.sleep(0.005)
        assert replica.stats.transient_errors >= 1
        disk.fail_next(0, "physical-write")  # promote's catch-up succeeds
        promoted = replica.promote()
        tailer.join(5.0)
        assert not tailer.is_alive()
        assert outcome["applied"] == 0      # nothing applied post-decision
        assert clock.woken == [True]        # never waited out the backoff
        try:
            assert [n for _i, n in promoted.documents()] == ["a", "b"]
        finally:
            promoted.close()
        with pytest.raises(ReplicationError, match="promoted"):
            replica.catch_up()

    def test_close_interrupts_inflight_backoff(self, tmp_path):
        """close() must not wait out a retry backoff either — the same
        interrupt path promote() uses."""
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        db.close()
        wrappers = []
        clock = WakeRecordingClock()
        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "close-standby.db"),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES,
            disk_factory=_faulty_disk_factory(wrappers),
            backoff_seconds=30.0, max_backoff_seconds=30.0,
            max_retries=100, clock=clock)
        wrappers[0].fail_next(1000, "physical-write")
        tailer = threading.Thread(target=replica.catch_up)
        tailer.start()
        give_up = time.monotonic() + 5.0
        while (replica.stats.transient_errors < 1
                and time.monotonic() < give_up):
            time.sleep(0.005)
        assert replica.stats.transient_errors >= 1
        replica.close()
        tailer.join(5.0)
        assert not tailer.is_alive()
        assert clock.woken == [True]
        # An interrupted tail flag clears on the next entry; the replica
        # is closed, so tailing now fails cleanly rather than hanging.
        assert replica.stats.segments_applied == 0


class TestReplicationMetrics:
    def test_observability_hub_gets_gauges_and_spans(self, tmp_path):
        path, archive_dir, backup, db = make_primary(tmp_path)
        db.add_document(XML_B, name="b")
        db.flush()
        hub = Observability()
        hub.tracer.enable()
        shipper = LocalDirShipper(archive_dir, PAGE_SIZE)
        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "obs-standby.db"), shipper,
            page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES,
            backoff_seconds=0.0, observability=hub)
        replica.catch_up()
        snap = hub.snapshot()
        assert sorted(name for name in snap
                      if name.startswith("repro_replication_")) == [
            "repro_replication_failovers",
            "repro_replication_lag_segments",
            "repro_replication_segments_applied",
        ]
        assert snap["repro_replication_segments_applied"] == 1
        assert snap["repro_replication_lag_segments"] == 0
        kinds = {r["kind"] for r in hub.tracer.records()}
        assert "replica.catch_up" in kinds
        assert "replica.apply" in kinds
        # The primary can watch lag from its side too.
        db.attach_replication(replica)
        assert "repro_replication_segments_applied 1" in db.metrics_text()
        assert db.stats()["replication"]["segments_applied"] == 1
        db.close()
        replica.close()


class TestFailoverChaosSweep:
    def run_workload(self, db):
        """Mutations with commit points; returns names acked so far."""
        acked = [["a"]]
        db.add_document(XML_A, name="b")
        db.flush()
        acked.append(["a", "b"])
        db.add_document(XML_B, name="c")
        db.flush()
        acked.append(["a", "b", "c"])
        db.remove_document(2)
        db.close()
        acked.append(["a", "c"])
        return acked

    def test_every_crash_point_fails_over_without_acked_loss(self, tmp_path):
        rng = random.Random(SEED)
        base_path, base_archive, backup, db = make_primary(tmp_path, "base")
        db.close()

        # Probe run: count the workload's physical writes.
        probe = str(tmp_path / "probe.db")
        probe_archive = str(tmp_path / "probe.archive")
        shutil.copyfile(base_path, probe)
        shutil.copytree(base_archive, probe_archive)
        disk = FaultInjectingDisk(FileDisk(probe, page_size=PAGE_SIZE,
                                           durability="archive",
                                           archive_dir=probe_archive))
        pdb = XmlDatabase.open(disk=disk, page_size=PAGE_SIZE,
                               buffer_pages=BUFFER_PAGES)
        final_acked = self.run_workload(pdb)[-1]
        total = disk.op_counts["physical-write"]
        assert total > 10

        points = sorted(rng.sample(range(1, total + 1),
                                   min(SWEEP_POINTS, total)))
        promoted_runs = 0
        for kill in points:
            run = str(tmp_path / "run.db")
            run_archive = str(tmp_path / "run.archive")
            shutil.copyfile(base_path, run)
            if os.path.isdir(run_archive):
                shutil.rmtree(run_archive)
            shutil.copytree(base_archive, run_archive)

            torn = rng.choice([None, 1, 7, rng.randrange(PAGE_SIZE)])
            disk = FaultInjectingDisk(
                FileDisk(run, page_size=PAGE_SIZE, durability="archive",
                         archive_dir=run_archive),
                kill_after=kill, torn_bytes=torn)
            rdb = XmlDatabase.open(disk=disk, page_size=PAGE_SIZE,
                                   buffer_pages=BUFFER_PAGES)
            acked = [["a"]]
            with pytest.raises(CrashPoint):
                acked = self.run_workload(rdb)
            disk.abort()
            acked_names = acked[-1]

            standby = str(tmp_path / "standby.db")
            if os.path.exists(standby):
                os.remove(standby)
            replica = StandbyReplica.from_backup(
                backup, standby, LocalDirShipper(run_archive, PAGE_SIZE),
                page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES,
                backoff_seconds=0.0)
            promoted = replica.promote()
            try:
                names = [n for _i, n in promoted.documents()]
                # Zero acknowledged-commit loss: everything acked before
                # the crash is present.  (The standby may be *ahead* by
                # one commit whose segment became durable before the
                # fatal apply — never behind.)
                assert len(names) >= len(acked_names), (kill, names)
                assert names[: len(acked_names)] == acked_names \
                    or acked_names == ["a", "b", "c"] and names == ["a", "c"]
                promoted.verify()
                for tag in promoted.tags():
                    assert promoted.entries_for_tag(tag)
                text = promoted.metrics_text()
                assert "repro_replication_failovers 1" in text
                assert "repro_replication_lag_segments 0" in text
                promoted_runs += 1
            finally:
                promoted.close()
        assert promoted_runs == len(points)

    def test_restore_pitr_matches_promotion_state(self, tmp_path):
        """Crash mid-workload; restore+PITR must agree with the standby."""
        rng = random.Random(SEED + 2)
        base_path, base_archive, backup, db = make_primary(tmp_path, "pit")
        db.close()
        run = str(tmp_path / "pit-run.db")
        run_archive = str(tmp_path / "pit-run.archive")
        shutil.copyfile(base_path, run)
        shutil.copytree(base_archive, run_archive)
        disk = FaultInjectingDisk(
            FileDisk(run, page_size=PAGE_SIZE, durability="archive",
                     archive_dir=run_archive),
            kill_after=rng.randrange(8, 20), torn_bytes=rng.choice([None, 5]))
        rdb = XmlDatabase.open(disk=disk, page_size=PAGE_SIZE,
                               buffer_pages=BUFFER_PAGES)
        with pytest.raises(CrashPoint):
            self.run_workload(rdb)
        disk.abort()

        replica = StandbyReplica.from_backup(
            backup, str(tmp_path / "pit-standby.db"),
            LocalDirShipper(run_archive, PAGE_SIZE),
            page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES,
            backoff_seconds=0.0)
        promoted = replica.promote()
        standby_names = [n for _i, n in promoted.documents()]
        promoted.close()

        restored = XmlDatabase.restore(
            backup, str(tmp_path / "pit-restored.db"),
            archive_dir=run_archive, page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES)
        try:
            assert [n for _i, n in restored.documents()] == standby_names
        finally:
            restored.close()
