"""Archive retention: durable checkpoints and the safe prune horizon.

``durability="archive"`` keeps every committed group as a segment file
forever — correct, and a guarantee that any long-lived deployment
eventually fills its volume.  This module is the subsystem that may
*safely* call :meth:`~repro.storage.journal.Archive.prune_upto`:

* a :class:`CheckpointManager` takes periodic **checkpoints** — hot
  backups of the primary recorded durably next to the archive — so a
  restore never needs segments below the latest checkpoint's sequence;
* the **safe prune horizon** is computed as::

      min(latest durable checkpoint sequence,
          min standby acked sequence,
          head - pitr_window)

  Segments at or below the horizon serve no one: every restore has a
  newer base, every standby has already applied them, and the
  configured point-in-time window stays fully replayable.  No
  checkpoint yet means **no pruning** — the conservative default;
* under disk pressure an **emergency prune** drops the PITR-window term
  and cuts straight to the floor the checkpoint and standbys impose —
  point-in-time depth is traded away before availability is.

The :class:`RetentionPolicy` numbers are plumbing-free so the cluster
layer (:class:`~repro.cluster.replicaset.ReplicaSet`) can own the
standby-floor collection and the lag budget that decides when a
straggler stops holding the horizon and is re-seeded instead
(``docs/CLUSTER.md``).  :attr:`CheckpointManager.stats` counts every
checkpoint and prune; ``ReplicaSet.status()["retention"]`` and
``db.stats()["retention"]`` serve it.
"""

import errno
import json
import os
import shutil
from dataclasses import dataclass

from repro.storage.errors import DiskFullError, StorageError
from repro.storage.journal import fsync_directory

#: File (inside the checkpoint directory) recording every checkpoint.
CHECKPOINTS_NAME = "CHECKPOINTS.json"


class RetentionError(StorageError):
    """Retention misuse (bad policy numbers, unusable checkpoint dir)."""


@dataclass(frozen=True)
class RetentionPolicy:
    """The knobs bounding how much archive history is retained.

    ``pitr_window`` — segments behind the head always kept so
    point-in-time restores can land anywhere inside the window.
    ``checkpoint_every`` — take a new checkpoint after this many commit
    groups since the last one (None: checkpoints are manual).
    ``max_standby_lag`` — how many segments of retention a lagging
    standby may hold hostage before the cluster stops waiting and
    re-seeds it from a snapshot instead (None: hold forever).
    ``keep_checkpoints`` — checkpoint snapshots retained on disk; older
    ones are deleted once a newer checkpoint supersedes them.
    """

    pitr_window: int = 64
    checkpoint_every: int = None
    max_standby_lag: int = None
    keep_checkpoints: int = 2

    def __post_init__(self):
        if self.pitr_window < 0:
            raise RetentionError("pitr_window must be >= 0")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise RetentionError("checkpoint_every must be >= 1")
        if self.max_standby_lag is not None and self.max_standby_lag < 0:
            raise RetentionError("max_standby_lag must be >= 0")
        if self.keep_checkpoints < 1:
            raise RetentionError("keep_checkpoints must be >= 1")


@dataclass
class RetentionStats:
    """Lifetime counters for one :class:`CheckpointManager`."""

    checkpoints: int = 0          # checkpoints recorded
    checkpoints_dropped: int = 0  # superseded snapshots deleted
    prunes: int = 0               # prune() calls that removed segments
    emergency_prunes: int = 0     # disk-pressure prunes (PITR term waived)
    segments_pruned: int = 0      # segments removed (lifetime)
    holds: int = 0                # prunes where a standby held the horizon
    last_horizon: int = 0         # horizon of the most recent prune
    last_checkpoint_sequence: int = 0

    def snapshot(self):
        return dict(self.__dict__)


class CheckpointManager:
    """Own an archive's retention: checkpoints, horizon, pruning.

    ``archive`` is the live :class:`~repro.storage.journal.Archive`
    whose segments are being retained; ``checkpoint_dir`` holds the
    checkpoint snapshots plus the durable ``CHECKPOINTS.json`` record
    (the *latest durable checkpoint* term of the horizon is read from
    there, so a restarted manager resumes where the last one stopped).
    """

    def __init__(self, archive, policy=None, checkpoint_dir=None):
        if archive is None:
            raise RetentionError(
                "CheckpointManager needs an archive (durability='archive')")
        self.archive = archive
        self.policy = policy if policy is not None else RetentionPolicy()
        self.checkpoint_dir = (checkpoint_dir if checkpoint_dir is not None
                               else archive.directory + ".checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.stats = RetentionStats()
        self._checkpoints = self._load_records()
        if self._checkpoints:
            self.stats.last_checkpoint_sequence = \
                self._checkpoints[-1]["sequence"]

    # -- checkpoint records (durable) -----------------------------------------

    def _records_path(self):
        return os.path.join(self.checkpoint_dir, CHECKPOINTS_NAME)

    def _load_records(self):
        try:
            with open(self._records_path(), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            return []
        except (OSError, ValueError) as exc:
            raise RetentionError(
                "unreadable checkpoint record %s: %s"
                % (self._records_path(), exc))
        records = [r for r in raw
                   if isinstance(r, dict) and "sequence" in r]
        records.sort(key=lambda r: r["sequence"])
        return records

    def _save_records(self):
        """Write the record file atomically (tmp + rename + dir fsync):
        a crash mid-update leaves the previous record intact, never a
        torn one — the horizon must only ever read *durable*
        checkpoints."""
        path = self._records_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._checkpoints, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_directory(self.checkpoint_dir)

    def checkpoints(self):
        """Recorded checkpoints, oldest first (sequence + directory)."""
        return [dict(record) for record in self._checkpoints]

    def latest_checkpoint(self):
        """The newest durable checkpoint record, or None."""
        return dict(self._checkpoints[-1]) if self._checkpoints else None

    # -- taking checkpoints ---------------------------------------------------

    def checkpoint(self, source):
        """Hot-backup ``source`` and record it durably; returns the record.

        ``source`` is anything :func:`~repro.storage.backup.hot_backup`
        accepts (an ``XmlDatabase``, a ``FileDisk``, a path).  ENOSPC
        while writing the snapshot surfaces as a typed
        :class:`~repro.storage.errors.DiskFullError` with the partial
        snapshot directory removed — a half-written checkpoint must
        never become a prune justification.
        """
        from repro.storage.backup import hot_backup

        staging = os.path.join(self.checkpoint_dir, "ckpt-inprogress")
        if os.path.isdir(staging):
            shutil.rmtree(staging)
        try:
            manifest = hot_backup(source, staging)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            if exc.errno == errno.ENOSPC:
                raise DiskFullError(
                    "checkpoint snapshot hit ENOSPC: %s" % exc) from exc
            raise
        dest = os.path.join(self.checkpoint_dir,
                            "ckpt-%016d" % manifest.sequence)
        if os.path.isdir(dest):
            shutil.rmtree(dest)
        os.replace(staging, dest)
        fsync_directory(self.checkpoint_dir)
        record = {"sequence": manifest.sequence, "directory": dest,
                  "created_at": manifest.created_at}
        self._checkpoints = [r for r in self._checkpoints
                             if r["sequence"] != manifest.sequence]
        self._checkpoints.append(record)
        self._checkpoints.sort(key=lambda r: r["sequence"])
        self._save_records()
        self.stats.checkpoints += 1
        self.stats.last_checkpoint_sequence = manifest.sequence
        self._drop_superseded()
        return dict(record)

    def maybe_checkpoint(self, source, head=None):
        """Checkpoint when the policy's cadence says one is due.

        ``head`` is the archive head sequence (looked up when omitted).
        Returns the new record, or None when nothing was due.
        """
        if self.policy.checkpoint_every is None:
            return None
        if head is None:
            head = self.archive.latest_sequence()
        if head is None:
            return None
        last = self.stats.last_checkpoint_sequence
        if head - last < self.policy.checkpoint_every and last:
            return None
        if not last and head < self.policy.checkpoint_every:
            return None
        return self.checkpoint(source)

    def _drop_superseded(self):
        """Delete checkpoint snapshots beyond ``keep_checkpoints``."""
        while len(self._checkpoints) > self.policy.keep_checkpoints:
            record = self._checkpoints.pop(0)
            directory = record.get("directory")
            if directory and os.path.isdir(directory):
                shutil.rmtree(directory, ignore_errors=True)
            self.stats.checkpoints_dropped += 1
        self._save_records()

    # -- the horizon ----------------------------------------------------------

    def safe_horizon(self, standby_floor=None, pitr_window=None):
        """Highest sequence prunable without losing anything anyone needs.

        ``standby_floor`` is the minimum acked/applied sequence across
        the standbys the cluster is still waiting for (None: no standby
        constraint).  ``pitr_window`` overrides the policy's window (the
        emergency path passes 0).  Returns None when nothing may be
        pruned — no durable checkpoint, empty archive, or a constraint
        at or below the oldest retained segment.
        """
        if not self._checkpoints:
            return None
        head = self.archive.latest_sequence()
        if head is None:
            return None
        window = (self.policy.pitr_window if pitr_window is None
                  else pitr_window)
        horizon = min(self._checkpoints[-1]["sequence"], head - window)
        if standby_floor is not None:
            horizon = min(horizon, standby_floor)
        if horizon < 1:
            return None
        oldest = self.archive.oldest_sequence()
        if oldest is not None and horizon < oldest:
            return None  # everything below the horizon is already gone
        return horizon

    def prune(self, standby_floor=None):
        """Prune to the safe horizon; returns segments removed.

        Counts a *hold* when the standby floor — not the checkpoint or
        the PITR window — was the binding constraint: the signal that a
        straggler is the reason the disk is not shrinking.
        """
        horizon = self.safe_horizon(standby_floor=standby_floor)
        if horizon is None:
            return 0
        unconstrained = self.safe_horizon()
        removed = self.archive.prune_upto(horizon)
        if removed:
            self.stats.prunes += 1
            self.stats.segments_pruned += removed
            self.stats.last_horizon = horizon
            if unconstrained is not None and horizon < unconstrained:
                self.stats.holds += 1
        return removed

    def emergency_prune(self, standby_floor=None):
        """Disk-pressure prune: waive the PITR window, cut to the floor.

        Still bounded by the latest durable checkpoint and the standby
        floor — an emergency never justifies pruning segments a restore
        or a live standby would need.  Returns segments removed.
        """
        horizon = self.safe_horizon(standby_floor=standby_floor,
                                    pitr_window=0)
        if horizon is None:
            return 0
        removed = self.archive.prune_upto(horizon)
        if removed:
            self.stats.emergency_prunes += 1
            self.stats.segments_pruned += removed
            self.stats.last_horizon = horizon
        return removed
