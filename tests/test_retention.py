"""Bounded disks, unbounded uptime: retention, re-seed, ENOSPC survival.

Three layers under test:

* **storage** — errno-accurate ENOSPC injection
  (:meth:`~repro.storage.faults.FaultInjectingDisk.fail_with_disk_full`
  / :meth:`~repro.storage.faults.FaultInjectingDisk.fill_disk`), the
  clean-failed-commit guarantee (nothing durable, sequence reused,
  database readable throughout), and the
  :class:`~repro.storage.retention.CheckpointManager` horizon math;
* **database** — the read-only degradation ladder: a commit that hits
  ENOSPC flips the database read-only with a typed
  :class:`~repro.storage.errors.ReadOnlyError` on writes, reads keep
  answering, and the first successful commit flips it back;
* **cluster** — retention driven by the shared horizon (checkpoint /
  standby floor / PITR window), the ``max_standby_lag`` budget that
  re-seeds stragglers instead of holding retention forever, disk-full
  as a degradation (no failover) with emergency pruning, and the
  seeded retention-chaos sweep: prune under lag, ENOSPC mid-commit,
  primary kill during the run — with **zero acked-commit loss** and a
  **bounded archive high-water mark** required every schedule.

``CHAOS_SEED`` reproduces a CI failure locally; ``RETENTION_SCHEDULES``
scales the sweep (CI runs 50).
"""

import os
import random

import pytest

from repro.cluster import ClusterClient, ClusterWriteError, ReplicaSet
from repro.core.database import XmlDatabase
from repro.storage.disk import FileDisk
from repro.storage.errors import (DiskFullError, ReadOnlyError,
                                  is_disk_full_error)
from repro.storage.faults import FaultInjectingDisk
from repro.storage.journal import Archive, decode_group
from repro.storage.replication import LocalDirShipper, StandbyReplica
from repro.storage.retention import (CheckpointManager, RetentionError,
                                     RetentionPolicy)

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
SCHEDULES = int(os.environ.get("RETENTION_SCHEDULES", "6"))

PAGE_SIZE = 512
BUFFER_PAGES = 32

XML = ("<dept><team><name>db</name>"
       "<member><name>ada</name></member></team></dept>")


def make_primary(tmp_path, name="primary", durability="archive"):
    path = str(tmp_path / ("%s.db" % name))
    # Where the commit path writes its segments: journal mode's directory
    # is private and fixed, and archive_dir is ignored.
    archive_dir = (str(tmp_path / ("%s.archive" % name))
                   if durability == "archive" else path + ".wal")
    disk = FaultInjectingDisk(
        FileDisk(path, PAGE_SIZE, durability=durability,
                 archive_dir=archive_dir))
    db = XmlDatabase.create(disk=disk, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES)
    db.add_document(XML, name="seed")
    db.flush()
    return db, disk, archive_dir


def commit_doc(db, label):
    db.add_document("<d><e>%s</e></d>" % label, name=label)
    db.flush()
    return db.commit_sequence


class TestRetentionPolicy:
    def test_rejects_bad_numbers(self):
        with pytest.raises(RetentionError):
            RetentionPolicy(pitr_window=-1)
        with pytest.raises(RetentionError):
            RetentionPolicy(checkpoint_every=0)
        with pytest.raises(RetentionError):
            RetentionPolicy(max_standby_lag=-1)
        with pytest.raises(RetentionError):
            RetentionPolicy(keep_checkpoints=0)

    def test_manager_requires_an_archive(self):
        with pytest.raises(RetentionError):
            CheckpointManager(None)


class TestSafeHorizon:
    def test_no_checkpoint_means_no_pruning(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive,
                                    RetentionPolicy(pitr_window=0))
        for index in range(3):
            commit_doc(db, "w%d" % index)
        assert manager.safe_horizon() is None
        assert manager.prune() == 0
        assert db.archive.oldest_sequence() == 1
        db.close()

    def test_horizon_is_min_of_checkpoint_window_and_floor(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive,
                                    RetentionPolicy(pitr_window=2))
        for index in range(6):
            commit_doc(db, "w%d" % index)
        record = manager.checkpoint(db)       # checkpoint at head=7
        head = db.commit_sequence
        assert record["sequence"] == head
        # Window binds: min(7, 7-2) = 5.
        assert manager.safe_horizon() == head - 2
        # Standby floor binds harder.
        assert manager.safe_horizon(standby_floor=3) == 3
        # A floor below 1 forbids pruning entirely.
        assert manager.safe_horizon(standby_floor=0) is None
        db.close()

    def test_prune_respects_window_and_counts_holds(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive,
                                    RetentionPolicy(pitr_window=2))
        for index in range(6):
            commit_doc(db, "w%d" % index)
        manager.checkpoint(db)
        head = db.commit_sequence
        removed = manager.prune(standby_floor=3)
        assert removed == 3                    # sequences 1..3
        assert db.archive.oldest_sequence() == 4
        assert manager.stats.holds == 1        # the floor was binding
        removed = manager.prune()              # window now binds: up to 5
        assert removed == 2
        assert db.archive.oldest_sequence() == head - 2 + 1
        assert manager.stats.holds == 1        # not a hold this time
        db.close()

    def test_emergency_prune_waives_window_not_checkpoint(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive,
                                    RetentionPolicy(pitr_window=64))
        for index in range(4):
            commit_doc(db, "w%d" % index)
        manager.checkpoint(db)
        ckpt = manager.stats.last_checkpoint_sequence
        commit_doc(db, "after-ckpt")
        # The huge window forbids normal pruning...
        assert manager.prune() == 0
        # ...but disk pressure cuts straight to the checkpoint floor.
        removed = manager.emergency_prune()
        assert removed == ckpt
        assert db.archive.oldest_sequence() == ckpt + 1
        assert manager.stats.emergency_prunes == 1
        db.close()

    def test_restore_works_from_checkpoint_after_pruning(self, tmp_path):
        """The acceptance property: PITR inside the window still works
        once everything below the horizon is gone."""
        db, _disk, archive_dir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive,
                                    RetentionPolicy(pitr_window=2))
        for index in range(5):
            commit_doc(db, "w%d" % index)
        manager.checkpoint(db)
        commit_doc(db, "tail-0")
        commit_doc(db, "tail-1")
        manager.prune()
        db.flush()
        record = manager.latest_checkpoint()
        restored = XmlDatabase.restore(
            record["directory"], str(tmp_path / "restored.db"),
            archive_dir=archive_dir, page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES)
        names = [n for _i, n in restored.documents()]
        assert names[-1] == "tail-1"           # rolled forward to head
        assert restored.restore_result.sequence == db.commit_sequence
        restored.close()
        db.close()

    def test_checkpoint_cadence_and_superseded_drop(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(
            db.archive, RetentionPolicy(pitr_window=0, checkpoint_every=3,
                                        keep_checkpoints=1))
        assert manager.maybe_checkpoint(db) is None   # head 1 < cadence
        for index in range(2):
            commit_doc(db, "w%d" % index)
        first = manager.maybe_checkpoint(db)
        assert first is not None and first["sequence"] == 3
        assert manager.maybe_checkpoint(db) is None   # not due again yet
        for index in range(3):
            commit_doc(db, "x%d" % index)
        second = manager.maybe_checkpoint(db)
        assert second is not None and second["sequence"] == 6
        # keep_checkpoints=1: the superseded snapshot directory is gone.
        assert manager.stats.checkpoints_dropped == 1
        assert not os.path.isdir(first["directory"])
        assert os.path.isdir(second["directory"])
        db.close()

    def test_checkpoint_record_survives_manager_restart(self, tmp_path):
        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive, RetentionPolicy())
        manager.checkpoint(db)
        sequence = manager.stats.last_checkpoint_sequence
        reopened = CheckpointManager(db.archive, RetentionPolicy(),
                                     checkpoint_dir=manager.checkpoint_dir)
        assert reopened.stats.last_checkpoint_sequence == sequence
        assert reopened.latest_checkpoint()["sequence"] == sequence
        db.close()

    def test_enospc_during_checkpoint_leaves_no_half_record(
            self, tmp_path, monkeypatch):
        import errno as _errno

        import repro.storage.backup as backup_mod

        db, _disk, _adir = make_primary(tmp_path)
        manager = CheckpointManager(db.archive, RetentionPolicy())

        def full(_source, _dest):
            raise OSError(_errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(backup_mod, "hot_backup", full)
        with pytest.raises(DiskFullError):
            manager.checkpoint(db)
        assert manager.latest_checkpoint() is None
        assert not os.path.isdir(
            os.path.join(manager.checkpoint_dir, "ckpt-inprogress"))
        # A half-written checkpoint must never justify pruning.
        assert manager.prune() == 0
        db.close()


class TestEnospcInjection:
    """The clean-failed-commit guarantee of the one commit path, under
    the keep-everything policy here and the retain-nothing policy in
    :class:`TestEnospcInjectionJournal`."""

    durability = "archive"

    def retained(self, sequence):
        """Segments on disk once commit ``sequence`` is applied."""
        if self.durability == "archive":
            return list(range(1, sequence + 1))
        return []

    def test_single_shot_enospc_fails_commit_cleanly(self, tmp_path):
        db, disk, archive_dir = make_primary(tmp_path,
                                             durability=self.durability)
        segments = Archive(archive_dir, PAGE_SIZE)
        sequence = db.commit_sequence
        disk.fail_with_disk_full(1)
        db.add_document(XML, name="doomed")
        with pytest.raises(DiskFullError):
            db.flush()
        assert disk.enospc_injected == 1
        # Nothing durable, sequence not consumed, archive gap-free.
        assert db.commit_sequence == sequence
        assert segments.sequences() == self.retained(sequence)
        # Single-shot: the retry goes straight through and reuses the
        # sequence the failed commit gave back.
        db.flush()
        assert db.commit_sequence == sequence + 1
        assert segments.sequences() == self.retained(sequence + 1)
        assert [n for _i, n in db.documents()][-1] == "doomed"
        db.close()

    def test_sticky_disk_full_until_freed(self, tmp_path):
        db, disk, _adir = make_primary(tmp_path, durability=self.durability)
        disk.fill_disk()
        assert disk.disk_full
        db.add_document(XML, name="waiting")
        for _ in range(3):
            with pytest.raises(DiskFullError):
                db.flush()
        assert disk.enospc_injected == 3
        disk.free_space()
        assert not disk.disk_full
        db.flush()
        assert [n for _i, n in db.documents()][-1] == "waiting"
        db.close()

    def test_is_disk_full_error_walks_causes(self):
        import errno as _errno

        chained = DiskFullError("outer")
        chained.__cause__ = OSError(_errno.ENOSPC, "No space")
        assert is_disk_full_error(chained)
        assert is_disk_full_error(OSError(_errno.ENOSPC, "No space"))
        assert is_disk_full_error(ReadOnlyError("read-only"))
        assert not is_disk_full_error(OSError(_errno.EIO, "I/O error"))
        assert not is_disk_full_error(ValueError("nope"))

    def test_no_partial_segment_left_behind(self, tmp_path):
        db, disk, archive_dir = make_primary(tmp_path,
                                             durability=self.durability)
        disk.fill_disk()
        db.add_document(XML, name="w")
        with pytest.raises(DiskFullError):
            db.flush()
        archive = Archive(archive_dir, PAGE_SIZE)
        for sequence in archive.sequences():
            assert decode_group(archive.fetch(sequence),
                                PAGE_SIZE) is not None   # all decodable
        disk.free_space()
        db.close()


class TestEnospcInjectionJournal(TestEnospcInjection):
    durability = "journal"
    test_is_disk_full_error_walks_causes = None  # no disk involved


class TestReadOnlyDegrade:
    def test_sticky_enospc_degrades_then_auto_resumes(self, tmp_path):
        """The dedicated ENOSPC ladder test: sticky disk-full flips the
        database read-only, reads keep working, writes raise the typed
        error, and freeing space auto-recovers on the next write."""
        db, disk, _adir = make_primary(tmp_path)
        disk.fill_disk()
        db.add_document(XML, name="stuck")
        with pytest.raises(DiskFullError):
            db.flush()
        assert not db.writable
        assert "ENOSPC" in db.degraded_reason

        # Reads keep answering from committed + staged state.
        assert len(db.query("//member/name").matches) >= 1
        assert db.ping() == db.commit_sequence

        # Writes are rejected with the typed error (and each attempt
        # retries the stuck commit underneath — still full, still fails).
        with pytest.raises(ReadOnlyError):
            db.add_document(XML, name="rejected")
        with pytest.raises(ReadOnlyError):
            db.remove_document(1)
        stats = db.stats()["disk_full"]
        assert stats["degraded"] and stats["commit_failures"] >= 3

        # Space returns: the very next write heals the database.
        disk.free_space()
        doc_id = db.add_document(XML, name="healed")
        db.flush()
        assert db.writable and db.degraded_reason is None
        names = [n for _i, n in db.documents()]
        assert "stuck" in names and "healed" in names and doc_id > 1
        stats = db.stats()["disk_full"]
        assert not stats["degraded"] and stats["recoveries"] == 1
        snap = db.metrics()
        assert snap["repro_disk_full_degraded"] == 0
        assert snap["repro_disk_full_recoveries"] == 1
        db.close()


def make_cluster(tmp_path, standbys=2, retention_policy=None,
                 **set_options):
    """A retention-enabled ReplicaSet over real files; returns
    ``(replica_set, client, primary_db, primary_fault_disk, replicas)``."""
    db, disk, archive_dir = make_primary(tmp_path)
    backup = str(tmp_path / "base.backup")
    db.hot_backup(backup)
    replicas = []
    for index in range(standbys):
        replicas.append(StandbyReplica.from_backup(
            backup, str(tmp_path / ("standby-%d.db" % index)),
            LocalDirShipper(archive_dir, PAGE_SIZE), page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES, backoff_seconds=0.001,
            max_backoff_seconds=0.01))
    set_options.setdefault("cooldown_seconds", 0.02)
    replica_set = ReplicaSet(db, replicas,
                             retention_policy=retention_policy,
                             **set_options)
    return replica_set, ClusterClient(replica_set), db, disk, replicas


class TestClusterRetention:
    def test_sustained_writes_keep_the_archive_bounded(self, tmp_path):
        policy = RetentionPolicy(pitr_window=2, checkpoint_every=3,
                                 max_standby_lag=8)
        rs, client, db, _disk, _replicas = make_cluster(
            tmp_path, retention_policy=policy)
        bound = policy.pitr_window + policy.checkpoint_every + 2
        high_water = 0
        for index in range(20):
            client.add_document("<d><e>doc%d</e></d>" % index)
            rs.tick()
            _o, _n, count, _b = db.archive.replay_window()
            high_water = max(high_water, count)
        assert high_water <= bound
        status = rs.status()
        assert status["retention"]["prunes"] > 0
        assert status["retention"]["checkpoints"] > 0
        # Every standby kept up — retention never outran a healthy tail.
        for backend in status["backends"]:
            assert backend["applied_sequence"] == status["acked_sequence"]
        rs.close()

    def test_lag_budget_reseeds_straggler_which_converges(self, tmp_path):
        policy = RetentionPolicy(pitr_window=1, checkpoint_every=2,
                                 max_standby_lag=3)
        rs, client, db, _disk, replicas = make_cluster(
            tmp_path, retention_policy=policy)
        frozen = replicas[1]
        real_catch_up = frozen.catch_up
        frozen.catch_up = lambda limit=None: 0   # wedge the tail
        for index in range(6):
            client.add_document("<d><e>doc%d</e></d>" % index)
            rs.tick()
        snap = rs.observability.snapshot()
        assert snap["repro_cluster_lag_budget_marks_total"] >= 1
        assert snap["repro_cluster_reseeds_total"] >= 1
        assert frozen.stats.reseeds >= 1
        frozen.catch_up = real_catch_up
        client.add_document("<d><e>after</e></d>")
        for _ in range(3):
            rs.tick()
        status = rs.status()
        for backend in status["backends"]:
            assert backend["applied_sequence"] == status["acked_sequence"]
            assert not backend.get("needs_reseed")
        rs.close()

    def test_pruned_at_source_triggers_reseed_via_tick(self, tmp_path):
        """A standby that discovers the prune itself (fetch below the
        source's floor) marks needs_reseed; the next tick re-seeds it."""
        policy = RetentionPolicy(pitr_window=1, checkpoint_every=2)
        rs, client, db, _disk, replicas = make_cluster(
            tmp_path, standbys=1, retention_policy=policy)
        straggler = replicas[0]
        real_catch_up = straggler.catch_up
        straggler.catch_up = lambda limit=None: 0
        for index in range(6):
            client.add_document("<d><e>doc%d</e></d>" % index)
            rs.tick()
        # Retention pruned past the straggler (no lag budget: the floor
        # held only while the standby was healthy — wedged means its
        # floor froze, so force the situation by pruning directly).
        straggler.catch_up = real_catch_up
        db.retention.emergency_prune()           # cut to checkpoint floor
        assert straggler.catch_up() == 0
        assert straggler.needs_reseed
        assert straggler.stats.pruned_at_source == 1
        rs.tick()                                 # the healing tick
        assert not straggler.needs_reseed
        assert straggler.stats.reseeds == 1
        status = rs.status()
        assert (status["backends"][1]["applied_sequence"]
                == status["acked_sequence"])
        rs.close()

    def test_disk_full_primary_degrades_without_failover(self, tmp_path):
        policy = RetentionPolicy(pitr_window=2, checkpoint_every=2)
        rs, client, db, disk, _replicas = make_cluster(
            tmp_path, standbys=1, retention_policy=policy)
        for index in range(4):
            client.add_document("<d><e>doc%d</e></d>" % index)
            rs.tick()
        acked = rs.acked_sequence

        disk.fill_disk()
        with pytest.raises(ClusterWriteError) as info:
            client.add_document("<d><e>boom</e></d>")
        assert is_disk_full_error(info.value)
        for _ in range(3):
            rs.tick()         # degradation ticks: prune + retry, no failover
        status = rs.status()
        assert status["epoch"] == 1               # no failover
        assert status["primary"] == "node-0"
        assert status["writable"] is False
        assert status["retention"]["emergency_prunes"] >= 1
        # Reads still flow — from the primary and the standby.
        assert len(client.query("//d").rows) >= 4
        snap = rs.observability.snapshot()
        assert snap["repro_cluster_disk_full_degradations_total"] == 1
        assert snap["repro_cluster_failovers_total"] == 0

        disk.free_space()
        rs.tick()                                 # heals the stuck commit
        status = rs.status()
        assert status["writable"] is True
        ack = client.add_document("<d><e>recovered</e></d>")
        assert ack.sequence > acked
        snap = rs.observability.snapshot()
        assert snap["repro_cluster_disk_full_recoveries_total"] == 1
        assert snap["repro_cluster_failovers_total"] == 0
        rs.close()


def run_retention_schedule(tmp_path, rng, ordinal):
    """One seeded chaos schedule; returns its high-water mark.

    Random interleaving of acked writes with: single-shot ENOSPC on a
    commit, sticky disk-full windows (freed later), a wedged standby
    tail (unwedged later), and — in some schedules — a primary kill
    mid-run (failover + retention re-attach on the new primary).  The
    invariants checked at the end:

    * zero acked-commit loss — every acked write is queryable;
    * zero permanent stalls — every standby converges to the head
      (possibly via snapshot re-seed);
    * the archive high-water mark stays bounded.
    """
    policy = RetentionPolicy(pitr_window=rng.choice((1, 2, 3)),
                             checkpoint_every=rng.choice((2, 3)),
                             max_standby_lag=rng.choice((3, 5)))
    schedule_dir = tmp_path / ("schedule-%d" % ordinal)
    os.makedirs(str(schedule_dir), exist_ok=True)
    rs, client, db, disk, replicas = make_cluster(
        schedule_dir, standbys=2, retention_policy=policy, down_after=2)
    bound = (policy.pitr_window + policy.checkpoint_every
             + policy.max_standby_lag + 2)
    kill_at = rng.randrange(8, 16) if rng.random() < 0.3 else None
    acked_labels = []
    high_water = 0
    frozen = None
    frozen_until = -1
    sticky_until = -1
    try:
        for op in range(24):
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
                assert rs.view.primary is not None, \
                    "failover did not complete (schedule %d)" % ordinal
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
            elif roll < 0.18:
                primary = rs.view.primary
                if primary is not None:
                    d = primary.database._context.disk
                    if hasattr(d, "fail_with_disk_full"):
                        d.fail_with_disk_full(1)
            elif roll < 0.24 and sticky_until < 0:
                primary = rs.view.primary
                if primary is not None:
                    d = primary.database._context.disk
                    if hasattr(d, "fill_disk"):
                        d.fill_disk()
                        sticky_until = op + rng.randrange(2, 5)
            label = "doc-%d-%d" % (ordinal, op)
            try:
                client.add_document("<d><e>%s</e></d>" % label, name=label)
                acked_labels.append(label)
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
        for _ in range(20):
            rs.tick()
            status = rs.status()
            if all(b["applied_sequence"] == status["acked_sequence"]
                   and not b.get("needs_reseed")
                   for b in status["backends"]):
                break
        status = rs.status()
        # Zero permanent stalls: every surviving standby converged.
        for backend in status["backends"]:
            assert backend["applied_sequence"] == status["acked_sequence"], \
                "%s stuck at %d vs acked %d (schedule %d)" % (
                    backend["id"], backend["applied_sequence"],
                    status["acked_sequence"], ordinal)
        # Zero acked-commit loss: every acked doc answers on the primary.
        primary = rs.view.primary
        assert primary is not None
        present = {name for _i, name in primary.database.documents()}
        lost = [label for label in acked_labels if label not in present]
        assert not lost, "acked writes lost: %r (schedule %d)" % (
            lost, ordinal)
        assert high_water <= bound, \
            "archive high-water %d above bound %d (schedule %d)" % (
                high_water, bound, ordinal)
        return high_water
    finally:
        rs.close()


class TestRetentionChaosSweep:
    def test_seeded_schedules_survive_with_bounded_archive(self, tmp_path):
        rng = random.Random(SEED)
        for ordinal in range(SCHEDULES):
            run_retention_schedule(tmp_path, rng, ordinal)
