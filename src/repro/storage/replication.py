"""Segment shipping to a warm standby, with promotion on failover.

With ``durability="archive"`` every committed group survives as a
sequence-numbered segment file (:class:`~repro.storage.journal.Archive`).
A :class:`StandbyReplica` *tails* that stream through a shipper, applies
each group to its own copy of the
data file through the same idempotent apply path crash recovery uses
(:meth:`~repro.storage.disk.FileDisk.apply_group`), serves read-only
queries through the normal engine, and — when the primary dies —
:meth:`~StandbyReplica.promote`\\ s to a writable primary after catching
up.

Safety rules, enforced rather than assumed
(:func:`~repro.storage.journal.classify_segment` gives the verdict):

* a segment is applied only if it decodes and passes its group CRC, and
  only in sequence order — the standby's file is always byte-identical to
  some committed primary state;
* a **torn head** segment (primary crashed mid-archive; the commit was
  never acknowledged) is skipped and re-polled — a restarted primary
  deletes and rewrites it;
* a **sequence gap** or a corrupt segment *below the head* is
  divergence: those commits cannot be reconstructed, so ``promote()``
  refuses with :class:`~repro.storage.errors.DivergenceError` unless the
  caller explicitly accepts failing over to the last-known-good sequence;
* a segment **pruned at the source** marks the replica for a snapshot
  re-seed (:meth:`StandbyReplica.reseed_from`) instead;
* transient apply/ship failures
  (:class:`~repro.storage.errors.TransientIOError`) are retried with
  exponential backoff before giving up with
  :class:`~repro.storage.errors.ReplicationError`.

A shipper is any object answering ``latest_sequence()``,
``oldest_sequence()``, ``fetch(sequence)`` (raw bytes, or None for a
segment it does not have) and ``close()``.  A call is one attempt: the
replica's retry loop is the only one on the shipping path.  Two exist:
the archive directory itself (:data:`LocalDirShipper`, a shared
filesystem) and :class:`~repro.net.shipper.SocketShipper` (TCP); one
conformance suite holds both to the same contract.
"""

import random
import threading
from dataclasses import dataclass, field

from repro.obs.trace import NULL_TRACER
from repro.storage.disk import FileDisk
from repro.storage.errors import (
    DivergenceError,
    ReplicationError,
    TransientIOError,
)
from repro.storage.journal import (APPLY, CORRUPT, MISSING, PRUNED, TORN_HEAD,
                                   Archive, classify_segment)
from repro.storage.timemodel import SystemClock, backoff_delay

#: Retry policy defaults for transient ship/apply failures.
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_SECONDS = 0.01
#: Ceiling on one backoff sleep — exponential growth stops here, so a
#: deep retry loop never sleeps unboundedly long between attempts.
DEFAULT_MAX_BACKOFF_SECONDS = 0.5
#: Fraction of each backoff randomly shaved off.  Jitter de-synchronizes
#: a fleet of standbys retrying after one shared fault (a healed
#: partition, a restarted server) so they do not hammer the transport in
#: lockstep; shaving *down* keeps ``max_backoff_seconds`` a true ceiling.
DEFAULT_BACKOFF_JITTER = 0.5


class _TailInterrupted(Exception):
    """Internal: an in-flight catch_up was asked to yield (promotion or
    close).  Never escapes the replica."""


#: Ship segments out of a local archive directory: ``LocalDirShipper(
#: archive_dir, page_size)`` is the archive read in place (primary and
#: standby share a filesystem, or the directory is mounted).  Reads never
#: block the primary — segments are immutable once written.
LocalDirShipper = Archive


@dataclass
class ReplicationStats:
    """Counters for one standby's shipping, applying and failover."""

    segments_shipped: int = 0        # segments fetched from the transport
    segments_applied: int = 0
    pages_applied: int = 0
    bytes_shipped: int = 0
    apply_retries: int = 0           # retry loops that eventually succeeded
    transient_errors: int = 0        # TransientIOErrors absorbed
    #: TransientIOErrors absorbed, split by what was being retried —
    #: ``"poll"`` (latest_sequence), ``"ship"`` (fetch), ``"apply"``.
    retries_by_cause: dict = field(default_factory=dict)
    torn_segments_seen: int = 0      # torn head segments skipped (re-polled)
    divergence_refusals: int = 0     # promote() calls refused
    failovers: int = 0               # successful promotions
    pruned_at_source: int = 0        # fetches answered "pruned" (re-seed)
    reseeds: int = 0                 # snapshot re-seeds completed
    last_applied_sequence: int = 0
    shipper_head_sequence: int = 0   # head seen at the last poll

    @property
    def lag_segments(self):
        """Commit groups the standby is behind the shipped head."""
        return max(0, self.shipper_head_sequence
                   - self.last_applied_sequence)


class StandbyReplica:
    """A warm standby: tails the archive, serves reads, can take over.

    ``path`` is the standby's own copy of the data file — bootstrap it
    with :meth:`from_backup` (restore a hot backup) and the replica
    catches up on everything newer through ``shipper``.  ``disk_factory``
    (path, page_size) -> disk lets tests interpose a
    :class:`~repro.storage.faults.FaultInjectingDisk` on the apply path.
    ``observability`` (an :class:`~repro.obs.Observability` hub or None)
    gets catch-up/apply/promote trace records and, via
    :meth:`bind_metrics`, the replication gauges.
    """

    def __init__(self, path, shipper, page_size=4096, buffer_pages=256,
                 max_retries=DEFAULT_MAX_RETRIES,
                 backoff_seconds=DEFAULT_BACKOFF_SECONDS,
                 max_backoff_seconds=DEFAULT_MAX_BACKOFF_SECONDS,
                 backoff_jitter=DEFAULT_BACKOFF_JITTER, rng=None,
                 disk_factory=None, observability=None, clock=None):
        self.path = path
        self.shipper = shipper
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.backoff_jitter = backoff_jitter
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock if clock is not None else SystemClock()
        # One lock serializes the tail path (catch_up / promote): segment
        # apply is strictly single-threaded.  The event interrupts a
        # backoff sleep so promote() and close() never wait one out.
        self._tail_lock = threading.RLock()
        self._stop_tailing = threading.Event()
        self.stats = ReplicationStats()
        self.promoted = False
        self.stall_reason = None   # divergence description, or None
        self.observability = observability
        self._tracer = (observability.tracer if observability is not None
                        else NULL_TRACER)
        if disk_factory is None:
            # durability="none": the standby never commits through the
            # logical write path; groups arrive already durable.
            disk_factory = lambda p, ps: FileDisk(p, ps, durability="none")
        self._disk_factory = disk_factory
        self._disk = disk_factory(path, page_size)
        #: Set when tailing cannot continue from here — the source pruned
        #: what this replica still needs, or a ReplicaSet moved the stream
        #: — but unlike divergence the cure is known: :meth:`reseed_from`.
        self.needs_reseed = False
        self._db = None            # lazily opened read-only query engine
        self.stats.last_applied_sequence = self._disk.commit_sequence
        if observability is not None:
            self.bind_metrics(observability.metrics)

    @classmethod
    def from_backup(cls, backup_dir, path, shipper, **options):
        """Bootstrap a standby by restoring a hot backup to ``path``.

        No archive replay happens here — catching up goes through the
        shipper, so bootstrap and steady-state exercise one code path.
        """
        from repro.storage.backup import restore

        result = restore(backup_dir, path)
        replica = cls(path, shipper,
                      page_size=options.pop("page_size", 4096), **options)
        replica.stats.last_applied_sequence = result.sequence
        return replica

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        self.interrupt()
        with self._tail_lock:
            self._close_query_db()
            if not getattr(self._disk, "closed", True):
                self._disk.close()
            self.shipper.close()

    def interrupt(self):
        """Ask an in-flight :meth:`catch_up` to yield at its next
        checkpoint (including mid-backoff).  The interrupted call returns
        normally with the count applied so far; the flag clears when the
        next tail call starts."""
        self._stop_tailing.set()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def _require_standby(self):
        if self.promoted:
            raise ReplicationError(
                "replica at %s was promoted; it no longer tails" % self.path)

    # -- tailing -------------------------------------------------------------

    def catch_up(self, limit=None):
        """Apply every available segment (up to ``limit``); returns count.

        Stops early — without error — at a torn head segment or when the
        stream is exhausted; stops *with a recorded stall* at a sequence
        gap or corrupt interior segment (divergence; see
        :meth:`promote`).  Transient ship/apply failures are retried with
        exponential backoff.
        """
        self._require_standby()
        if self.needs_reseed:
            return 0   # the stream below head is gone; only a re-seed helps
        applied = 0
        with self._tail_lock:
            self._require_standby()   # promotion may have won the lock
            self._stop_tailing.clear()
            try:
                with self._tracer.span("replica.catch_up", path=self.path):
                    head = self._poll_head()
                    while (limit is None or applied < limit):
                        if self._stop_tailing.is_set():
                            break
                        next_seq = self._disk.commit_sequence + 1
                        if head is None or next_seq > head:
                            break
                        if not self._ship_and_apply_one(next_seq, head):
                            break
                        applied += 1
            except _TailInterrupted:
                pass
        return applied

    def _poll_head(self):
        head = self._with_retry("poll", self.shipper.latest_sequence)
        self.stats.shipper_head_sequence = head or 0
        return head

    def _ship_and_apply_one(self, sequence, head):
        """Fetch, classify and apply one segment; False means stop."""
        blob = self._with_retry("ship",
                                lambda: self.shipper.fetch(sequence))
        oldest = None
        if blob is None:
            # Only a missing segment needs the source's retention floor.
            oldest = self._with_retry("poll", self.shipper.oldest_sequence)
        else:
            self.stats.segments_shipped += 1
            self.stats.bytes_shipped += len(blob)
        verdict, group = classify_segment(sequence, blob, self.page_size,
                                          head, oldest)
        if verdict == PRUNED:
            # Raft-InstallSnapshot situation: the source's retention ran
            # past this replica.  The segments cannot be shipped ever
            # again, but nothing diverged — a snapshot re-seed
            # (reseed_from) resumes tailing from a newer base.
            self.stats.pruned_at_source += 1
            self.needs_reseed = True
            self.stall_reason = (
                "segment %d was pruned at the source (oldest retained is "
                "newer); snapshot re-seed required" % sequence)
        elif verdict == MISSING:
            self.stall_reason = (
                "segment %d is missing below head %d (lost in transport "
                "or corrupt at the source)" % (sequence, head))
        elif verdict == TORN_HEAD:
            # The primary died mid-archive and never acknowledged this
            # commit.  A restarted primary deletes and rewrites it, so
            # re-poll rather than stall.
            self.stats.torn_segments_seen += 1
        elif verdict == CORRUPT:
            self.stall_reason = (
                "segment %d is corrupt or mis-filed below head %d"
                % (sequence, head))
        if verdict != APPLY:
            return False
        seq, records = group
        self._with_retry(
            "apply", lambda: self._disk.apply_group(seq, records))
        self.stats.segments_applied += 1
        self.stats.pages_applied += len(records)
        self.stats.last_applied_sequence = seq
        self.stall_reason = None
        self._close_query_db()
        self._tracer.event("replica.apply", sequence=seq,
                           pages=len(records))
        return True

    def _with_retry(self, what, fn):
        """Run ``fn`` retrying TransientIOError with jittered backoff.

        This is the only retry between the replica and its source: a
        shipper call is one exchange, so ``max_retries + 1`` bounds the
        exchanges one poll or fetch can cost, and ``retries_by_cause``
        counts transport retries too.  The per-attempt sleep is
        :func:`~repro.storage.timemodel.backoff_delay` of
        ``backoff_seconds``, ``max_backoff_seconds`` and
        ``backoff_jitter``.  Sleeps run on the replica's injectable clock,
        interruptible through :meth:`interrupt` — a promotion or close
        never waits out a backoff window.  Exhaustion raises
        :class:`~repro.storage.errors.ReplicationError` *from* the last
        transient failure, so callers (the cluster health machinery) can
        still see whether the cause was a network fault.
        """
        attempts = 0
        while True:
            try:
                result = fn()
                if attempts:
                    self.stats.apply_retries += 1
                return result
            except TransientIOError as exc:
                self.stats.transient_errors += 1
                self.stats.retries_by_cause[what] = \
                    self.stats.retries_by_cause.get(what, 0) + 1
                attempts += 1
                if attempts > self.max_retries:
                    raise ReplicationError(
                        "%s failed after %d retries: %s"
                        % (what, self.max_retries, exc)
                    ) from exc
                if self.backoff_seconds:
                    self.clock.sleep(
                        backoff_delay(attempts, self.backoff_seconds,
                                      self.max_backoff_seconds,
                                      self.backoff_jitter, self.rng),
                        interrupt=self._stop_tailing)
                if self._stop_tailing.is_set():
                    raise _TailInterrupted()

    # -- read-only serving ---------------------------------------------------

    @property
    def applied_sequence(self):
        """Commit sequence of the last applied group (routing shorthand)."""
        return self.stats.last_applied_sequence

    @property
    def database(self):
        """A read-only :class:`~repro.core.database.XmlDatabase` view.

        Reopened lazily after newly applied segments so queries always see
        the latest applied commit.  Treat it as read-only: mutating a
        standby forks its history from the primary's.
        """
        if self._db is None:
            from repro.core.database import XmlDatabase

            disk = FileDisk(self.path, self.page_size, durability="none")
            self._db = XmlDatabase.open(disk=disk,
                                        page_size=self.page_size,
                                        buffer_pages=self.buffer_pages)
        return self._db

    def query(self, path, **options):
        """Evaluate a path/twig query against the standby's applied state."""
        return self.database.query(path, **options)

    def documents(self):
        return self.database.documents()

    def _close_query_db(self):
        if self._db is not None:
            # Not close(): it flushes, and only apply_group may write the file.
            self._db.abandon()
            self._db = None

    # -- snapshot re-seed ----------------------------------------------------

    def reseed_from(self, backup_dir):
        """Tear down and re-bootstrap this replica from a hot backup.

        The recovery move for :attr:`needs_reseed` — the source pruned
        segments this replica still needed, so tailing can never catch
        up again.  Restores ``backup_dir`` over the replica's file (the
        backup must be of the *current* primary timeline), reopens the
        disk through the original ``disk_factory``, and resumes tailing
        from the backup's sequence.  Returns the
        :class:`~repro.storage.backup.RestoreResult`.  Serialized with
        tailing/promotion through the tail lock, so no segment is ever
        applied concurrently with the wipe.
        """
        from repro.storage.backup import restore

        self._require_standby()
        self._stop_tailing.set()
        with self._tail_lock:
            self._require_standby()
            self._close_query_db()
            try:
                if not getattr(self._disk, "closed", True):
                    self._disk.close()
            except BaseException:
                abort = getattr(self._disk, "abort", None)
                if abort is not None:
                    abort()
            result = restore(backup_dir, self.path)
            self._disk = self._disk_factory(self.path, self.page_size)
            self.stats.last_applied_sequence = result.sequence
            self.stats.reseeds += 1
            self.needs_reseed = False
            self.stall_reason = None
            return result

    # -- failover ------------------------------------------------------------

    def promote(self, allow_divergence=False, durability="archive",
                archive_dir=None, **open_options):
        """Catch up, verify convergence, and take over as primary.

        Returns a *writable* :class:`~repro.core.database.XmlDatabase`
        over the standby's file — in ``durability="archive"`` mode by
        default, writing new history to its **own** archive directory
        (never the old primary's, which a resurrected primary might still
        touch).  Refuses with
        :class:`~repro.storage.errors.DivergenceError` when the stream
        has a gap or an interior corrupt segment, unless
        ``allow_divergence=True`` accepts failing over at the
        last-known-good sequence.  The replica stops tailing either way
        once promotion succeeds.
        """
        self._require_standby()
        # Wake any catch_up() sleeping out a retry backoff, then take the
        # tail lock: promotion and tailing are strictly serialized, so an
        # interrupted catch_up can never apply a segment after the
        # promotion decision (it re-checks ``promoted`` under the lock).
        self._stop_tailing.set()
        with self._tail_lock, \
                self._tracer.span("replica.promote", path=self.path):
            self._require_standby()
            self.catch_up()
            if self.stall_reason is not None and not allow_divergence:
                self.stats.divergence_refusals += 1
                raise DivergenceError(
                    "refusing to promote %s: %s (pass "
                    "allow_divergence=True to fail over at sequence %d)"
                    % (self.path, self.stall_reason,
                       self.stats.last_applied_sequence)
                )
            from repro.core.database import XmlDatabase

            self._close_query_db()
            if not getattr(self._disk, "closed", True):
                self._disk.close()
            self.promoted = True
            self.stats.failovers += 1
            # A torn head segment is an unacknowledged commit; promotion
            # abandons it, so the replica is by definition caught up.
            self.stats.shipper_head_sequence = \
                self.stats.last_applied_sequence
            db = XmlDatabase.open(
                self.path, page_size=self.page_size,
                buffer_pages=self.buffer_pages, durability=durability,
                archive_dir=archive_dir, **open_options)
            db.attach_replication(self)
            return db

    # -- metrics -------------------------------------------------------------

    def attach_observability(self, observability):
        """Re-point this replica's spans and metrics at ``observability``.

        What a :class:`~repro.cluster.replicaset.ReplicaSet` calls to give
        each standby its own per-node hub (node-stamped trace records,
        flight recording) after construction.  Returns the hub.
        """
        self.observability = observability
        self._tracer = observability.tracer
        self.bind_metrics(observability.metrics)
        return observability

    def bind_metrics(self, registry):
        """Mirror :attr:`stats` into pull-refreshed gauges on ``registry``.

        Idempotent per registry; called automatically when the replica is
        built with an observability hub and by
        ``XmlDatabase.attach_replication``.
        """
        if registry in getattr(self, "_bound_registries", ()):
            return registry
        self._bound_registries = getattr(self, "_bound_registries", [])
        self._bound_registries.append(registry)
        registry.mirror(self.stats, (
            ("repro_replication_lag_segments", "lag_segments",
             "Commit groups the standby is behind the shipped head"),
            ("repro_replication_segments_applied", "segments_applied",
             "Segments applied to the standby (lifetime)"),
            ("repro_replication_failovers", "failovers",
             "Successful standby promotions"),
        ), name="replication")
        return registry
