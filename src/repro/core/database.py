"""XmlDatabase — the whole stack as one persistent database.

The adoption-ready face of the reproduction: create a database file, add XML
documents (parsed or generated), and run path/twig queries over XR-tree
indexes that are built incrementally, persisted through the catalog, and
survive reopening the file.

    db = XmlDatabase.create("corpus.db")
    db.add_document(xml_text, name="report-1")
    db.add_document(xml_text_2)
    result = db.query("//employee[email]/name")
    db.close()

    db = XmlDatabase.open("corpus.db")   # everything still there
    db.query("//employee//name")

Each tag's corpus-wide element set is one XR-tree (named ``tag:<name>`` in
the catalog); adding a document inserts its elements *dynamically*
(Algorithm 1 per element — the paper's maintenance story, exercised for
real).  Each document gets its own region range, offset past the previous
document's, so regions of different documents never nest and joins never
pair elements across documents.

Index handles are owned by an :class:`~repro.storage.indexmanager.\
IndexManager`: repeated queries reuse live trees instead of
re-deserializing them from the catalog, mutations mark handles dirty and
catalog metadata writes back in batches (on ``flush()`` and ``close()``).
Queries read those trees directly and keep nothing, so a mutation has no
cache to tell.  ``db.index_stats`` exposes the handle counters.
"""

import json
import struct
from collections import defaultdict

from repro.core.api import StorageContext
from repro.core.session import Session
from repro.obs import Observability
from repro.storage.catalog import Catalog
from repro.storage.errors import DiskFullError, ReadOnlyError
from repro.storage.indexmanager import IndexManager
from repro.storage.pages import ElementEntry
from repro.storage.scrub import IndexQuarantinedError, IntegrityScrubber
from repro.xmldata.parser import parse_document

_REGISTRY = "__documents__"
_DOC_GAP = 16
_KEEP = object()  # configure_observability: "leave this setting alone"


class XmlDatabaseError(Exception):
    """Database-level misuse (bad names, closed handles, ...)."""


class XmlDatabase:
    """A persistent, queryable collection of XML documents."""

    def __init__(self, context, catalog):
        self._context = context
        self._catalog = catalog
        self._indexes = context.attach_index_manager(
            IndexManager(catalog, context.pool))
        self._load_registry()
        self._sessions = set()
        self._live_session = None
        self._scrubber = None
        self._replication = None
        self._retention = None
        #: Non-None while the database is degraded read-only (disk full).
        self._degraded_reason = None
        self._disk_full_commit_failures = 0
        self._disk_full_recoveries = 0
        #: Set by :meth:`restore` on databases rebuilt from a backup.
        self.restore_result = None
        self.observability = Observability()
        context.pool.tracer = self.observability.tracer
        self._register_collectors()

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path=None, page_size=4096, buffer_pages=256, disk=None,
               durability="journal", archive_dir=None):
        """Create a fresh database (in memory when ``path`` is None).

        Pass ``disk`` to supply a pre-built disk — e.g. a
        :class:`~repro.storage.faults.FaultInjectingDisk` wrapper or a
        ``FileDisk`` with ``durability="none"``.  ``durability="archive"``
        keeps every applied commit group as a segment file (in
        ``archive_dir``, default ``<path>.archive``) for backups,
        point-in-time recovery and standby replication.
        """
        context = StorageContext(page_size, buffer_pages, path=path,
                                 disk=disk, durability=durability,
                                 archive_dir=archive_dir)
        database = cls(context, Catalog.create(context.pool))
        database._save_registry()
        return database

    @classmethod
    def open(cls, path=None, page_size=4096, buffer_pages=256, disk=None,
             durability="journal", archive_dir=None):
        """Reopen an existing database file (recovery runs on open).

        Takes the same storage options as :meth:`create`.
        """
        if path is None and disk is None:
            raise XmlDatabaseError("open() needs a path or a disk")
        context = StorageContext(page_size, buffer_pages, path=path,
                                 disk=disk, durability=durability,
                                 archive_dir=archive_dir)
        return cls(context, Catalog.open(context.pool))

    @classmethod
    def restore(cls, backup_dir, path, archive_dir=None, upto_sequence=None,
                **open_options):
        """Rebuild a database file from a hot backup and reopen it.

        Replays archived commit groups past the snapshot when
        ``archive_dir`` is given, stopping at ``upto_sequence``
        (point-in-time recovery).  Returns the opened database; the
        :class:`~repro.storage.backup.RestoreResult` is available as
        ``db.restore_result``.
        """
        from repro.storage.backup import restore as restore_file

        result = restore_file(backup_dir, path, archive_dir=archive_dir,
                              upto_sequence=upto_sequence)
        database = cls.open(path, **open_options)
        database.restore_result = result
        return database

    def flush(self):
        """Write back the document registry (if an add or remove dirtied
        it) and dirty index metadata, then every dirty page.

        The order matters for crash consistency: registry and catalog
        metadata are staged first so the commit group ``pool.flush_all()``
        triggers (via ``disk.sync()``) captures trees, their catalog
        entries and the documents they index together.  :meth:`scrub` and
        :meth:`rebuild_index` commit too (the scrubber syncs before its
        cold reads) and stage the registry the same way.

        A commit that hits ``ENOSPC`` raises
        :class:`~repro.storage.errors.DiskFullError` and flips the
        database **degraded read-only**: staged writes stay pending on
        the disk, reads keep answering, and subsequent writes raise
        :class:`~repro.storage.errors.ReadOnlyError`.  The next
        successful flush — writes retry it automatically — clears the
        degradation.
        """
        try:
            self._stage_registry()
            self._indexes.flush()
            self._context.pool.flush_all()
        except DiskFullError as exc:
            self._disk_full_commit_failures += 1
            if self._degraded_reason is None:
                self._degraded_reason = str(exc)
            raise
        if self._degraded_reason is not None:
            # The stuck commit went through: space came back.
            self._degraded_reason = None
            self._disk_full_recoveries += 1

    @property
    def writable(self):
        """False while degraded read-only (a commit hit ``ENOSPC``)."""
        return self._degraded_reason is None

    @property
    def degraded_reason(self):
        """Why the database is read-only (None when writable)."""
        return self._degraded_reason

    def _require_writable(self):
        """Gate a write while degraded: retry the stuck commit first
        (space may have been freed — that is the auto-recovery path),
        and raise :class:`~repro.storage.errors.ReadOnlyError` if the
        volume is still full."""
        if self._degraded_reason is None:
            return
        try:
            self.flush()
        except DiskFullError as exc:
            raise ReadOnlyError(
                "database is read-only (disk full): %s"
                % self._degraded_reason) from exc

    def close(self):
        for session in list(self._sessions):
            session.close()
        if self._live_session is not None:
            self._live_session.close()
        self.flush()
        self._context.close()

    def abandon(self):
        """Tear down *without* committing — the fenced-node teardown.

        Drops sessions and releases file descriptors through
        :meth:`StorageContext.abandon`; nothing is flushed, so a node
        whose disk already failed cannot acknowledge state on the way
        out.  Safe to call on a database whose disk is dead.
        """
        self._sessions.clear()
        self._live_session = None
        self._context.abandon()

    def ping(self):
        """Cheap liveness probe; returns the committed sequence.

        Verifies the storage below still answers by reading the document
        registry through the catalog (a real page path, though typically
        buffer-pool cached) and raises
        :class:`~repro.storage.errors.StorageError` when the disk has
        been killed by fault injection — the health-check hook cluster
        monitors drive.
        """
        from repro.storage.errors import StorageError

        disk = self._context.disk
        if getattr(disk, "dead", False):
            raise StorageError("disk is dead")
        if getattr(disk, "closed", False):
            raise StorageError("disk is closed")
        self._catalog.load_blob(_REGISTRY)
        return self.commit_sequence

    @property
    def commit_sequence(self):
        """The disk's committed-group sequence (0 before any commit).

        Snapshot sessions pin exactly this number at open; comparing a
        session's ``sequence`` against it gives that session's lag.
        """
        return self._context.disk.commit_sequence

    @property
    def index_stats(self):
        """Index-handle counters (hits, misses, loads, writebacks, ...).

        Also carries the buffer pool's ``max_pinned`` high-water mark —
        the most frames any operation held pinned at once, the floor a
        per-query page quota must clear to be satisfiable.
        """
        self._indexes.stats.max_pinned = self._context.pool.stats.max_pinned
        return self._indexes.stats

    @property
    def recovery_stats(self):
        """What crash recovery did when this database was opened.

        ``None`` for in-memory databases; a
        :class:`~repro.storage.disk.RecoveryStats` for file-backed ones.
        """
        return self._context.recovery_stats

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- document management -------------------------------------------------------

    def add_document(self, source, name=None):
        """Add an XML document (text or a parsed Document); returns doc id.

        Under each tag the document's elements are one start-sorted run,
        inserted with a single :meth:`XRTree.insert(entries)
        <repro.indexes.xrtree.XRTree.insert>` — dynamic maintenance a leaf
        at a time, not a rebuild.  The document owns the start range
        ``[offset, offset + span]`` of the corpus numbering; no other
        document's element ever falls inside it, so each run lands past
        every stored start, and :meth:`remove_document` can address the
        document's entries by region.  From text the runs are built as it
        is parsed (:class:`_RunBuilder`), with no element tree; every run
        is complete before the first tree is touched, so a malformed
        document changes nothing.
        """
        self._require_writable()
        doc_id = self._next_id
        offset = self._next_base
        runs = _RunBuilder(doc_id, offset)
        if isinstance(source, str):
            parse_document(source, consumer=runs)
        else:
            runs.walk(source)
        per_tag, depth, span = runs.per_tag, runs.depth, runs.span
        # Name every tree and size the document against the record before
        # anything changes: a tag too long to catalogue, or a region or
        # depth the record cannot hold (regions are never reused, so the
        # numbering does run out), rejects the whole document here — not its
        # tail, and not every later flush from inside page write-back.
        names = {tag: _tree_name(tag) for tag in per_tag}
        try:
            ElementEntry(doc_id, offset, offset + span, depth).pack()
        except struct.error as exc:
            raise XmlDatabaseError(
                "document does not fit the element record (id %d, region "
                "%d..%d, depth %d): %s"
                % (doc_id, offset, offset + span, depth, exc)
            ) from None
        self._documents[doc_id] = {
            "name": name or ("doc-%d" % doc_id),
            "offset": offset,
            "span": span,
            "elements": runs.count,
        }
        self._next_id = doc_id + 1
        self._next_base = offset + span + _DOC_GAP
        self._registry_dirty = True
        for tag, entries in per_tag.items():
            tree = self._indexes.get_or_create_xrtree(names[tag])
            self._indexes.mark_dirty(names[tag])
            tree.insert(entries)
        self._tags = sorted(set(self._tags).union(per_tag))
        return doc_id

    def remove_document(self, doc_id):
        """Delete every element of one document from the stored indexes.

        The document's entries under a tag are one start range — its
        region — so each tag's tree is entered at the region's offset and
        the run is cut out with a single :meth:`XRTree.delete(lo, hi)
        <repro.indexes.xrtree.XRTree.delete>`: Algorithm 2 a leaf at a
        time, never reading a leaf outside the region.  The region stands
        in for a ``doc_id`` filter, so it is read once first: unless all it
        holds carries this document's id, and as much as was recorded at
        insert, the removal raises with nothing changed.  The id is retired
        (ids are never reused).
        """
        self._require_writable()
        info = self._documents.get(doc_id)
        if info is None:
            raise XmlDatabaseError(
                ("document %d already removed" if 1 <= doc_id < self._next_id
                 else "unknown document id %d") % doc_id)
        low, high = info["offset"], info["offset"] + info["span"]
        held = own = 0
        for tag in self._tags:
            tree = self._indexes.get_xrtree(_tree_name(tag))
            if tree is None:
                continue
            for entry in tree.seek(low):
                if entry.start > high:
                    break
                held += 1
                own += entry.doc_id == doc_id
        # Documents stored before counts were kept skip that half.
        if own != held or held != info.get("elements", held):
            raise XmlDatabaseError(
                "document %d recorded %s elements but its region holds %d, "
                "%d of them its own; nothing was removed"
                % (doc_id, info.get("elements", "no count of"), held, own))
        survivors = []
        for tag in self._tags:
            name = _tree_name(tag)
            tree = self._indexes.get_xrtree(name)
            if tree is None:
                continue
            if tree.delete(low, high):
                self._indexes.mark_dirty(name)
            if tree.size == 0:
                # An emptied tag must not linger in the catalog: drop the
                # handle and tombstone the ``tag:<name>`` entry so the
                # catalog stays consistent with ``tags()``.
                self._indexes.drop(name)
            else:
                survivors.append(tag)
        del self._documents[doc_id]
        self._tags = survivors
        self._registry_dirty = True

    def documents(self):
        """(doc_id, name) pairs in insertion order (removed ones excluded)."""
        return [(doc_id, info["name"])
                for doc_id, info in self._documents.items()]

    def tags(self):
        return list(self._tags)

    def element_count(self, tag=None):
        if tag is not None:
            tree = self._tree_for(tag)
            return tree.size if tree else 0
        return sum(self.element_count(t) for t in self.tags())

    # -- querying ----------------------------------------------------------------------

    def entries_for_tag(self, tag):
        """Corpus-wide element set for ``tag`` (from the stored index)."""
        tree = self._tree_for(tag)
        if tree is None:
            return []
        return list(tree.items())

    def session(self, snapshot=True):
        """Open a :class:`~repro.core.session.Session` — the query surface.

        ``snapshot=True`` (the default) pins the last committed sequence:
        the session keeps answering from that frozen state while writers
        commit past it, and releases its pinned page versions on
        ``close()`` (sessions are context managers).  ``snapshot=False``
        returns a live session over this database's own pool and trees —
        it sees staged writes, like :meth:`query` always has.

        A fresh database that has never committed is flushed once first,
        so the snapshot has a committed catalog to read.
        """
        if snapshot:
            if self._context.disk.commit_sequence == 0:
                self.flush()
            session = Session(self, snapshot=True)
            self._sessions.add(session)
            return session
        return Session(self, snapshot=False)

    def query(self, path, runtime=None, profile=None):
        """Evaluate a path/twig expression over the stored indexes.

        A one-shot convenience over a live session — equivalent to
        ``db.session(snapshot=False).query(...)``; concurrent readers
        should hold a :meth:`session` instead.

        ``runtime`` is an optional
        :class:`~repro.query.runtime.QueryContext` imposing a deadline,
        cancellation token, page budget and/or row cap on the evaluation.
        The query is never queued or shed here; a bounded number of
        concurrent readers is what :class:`~repro.server.Server` adds.

        ``profile`` optionally attaches a
        :class:`~repro.obs.profile.QueryProfile` recording per-operator
        actuals; the filled profile also rides on ``result.profile``.
        """
        return self._live().query(path, runtime=runtime, profile=profile)

    def _live(self):
        if self._live_session is None or self._live_session.closed:
            self._live_session = Session(self, snapshot=False)
        return self._live_session

    # -- backup & replication --------------------------------------------------

    def hot_backup(self, dest_dir):
        """Snapshot the committed state into ``dest_dir`` without blocking.

        Readers keep running and staged (uncommitted) writes are
        naturally excluded — the copy reads the data file through its own
        descriptor, so it lands exactly on the last commit boundary.
        Returns the :class:`~repro.storage.backup.BackupManifest`.
        Requires a file-backed database.
        """
        from repro.storage.backup import hot_backup

        return hot_backup(self, dest_dir)

    def attach_replication(self, replica):
        """Surface a replica's shipping/failover counters here; returns it.

        Binds the :class:`~repro.storage.replication.StandbyReplica`'s
        stats into this database's metrics registry (visible in
        :meth:`metrics_text`) and under ``stats()["replication"]``.
        Called automatically on the database a ``promote()`` returns; a
        primary can also attach the replica it ships to, to watch lag
        from its side.
        """
        self._replication = replica
        replica.bind_metrics(self.observability.metrics)
        return replica

    @property
    def replication(self):
        return self._replication

    def attach_retention(self, manager):
        """Record a :class:`~repro.storage.retention.CheckpointManager`
        as this database's :attr:`retention`; returns it.

        The manager itself stays externally driven (the cluster's tick,
        or the operator): this only makes its checkpoints/prunes visible
        under ``stats()["retention"]``.
        """
        self._retention = manager
        return manager

    @property
    def retention(self):
        return self._retention

    @property
    def archive(self):
        """The disk's commit-group archive (``durability="archive"``
        only; None otherwise — including in-memory databases)."""
        return getattr(self._context.disk, "archive", None)

    def explain(self, path, analyze=False, runtime=None, profile=None):
        """The query engine's plan description for ``path``.

        ``analyze=True`` executes the query under a fresh profile and
        appends the measured per-operator actuals (EXPLAIN ANALYZE).
        Passing your own ``profile`` implies ``analyze`` and records the
        actuals into it — the same ``(runtime, profile)`` trio
        :meth:`query` takes.  Like :meth:`query`, this is a one-shot
        shim over a live :meth:`session`.
        """
        return self._live().explain(path, analyze=analyze,
                                    runtime=runtime, profile=profile)

    # -- observability -------------------------------------------------------

    def configure_observability(self, trace=None, slow_query_seconds=_KEEP):
        """Adjust the hub in place: enable/disable tracing, set the
        slow-query threshold (``None`` disables the log, ``0.0`` logs
        every query).  Returns the hub."""
        hub = self.observability
        if trace is True:
            hub.tracer.enable()
        elif trace is False:
            hub.tracer.disable()
        if slow_query_seconds is not _KEEP:
            hub.slow_query_seconds = slow_query_seconds
        return hub

    def metrics(self):
        """One flat metrics snapshot: name → value (collectors refreshed).

        Covers every instrument registered on the database's hub plus
        the gauges :meth:`_register_collectors` mirrors: buffer-pool
        hits, index handle-cache hits, torn journal groups, open
        snapshot sessions, snapshot lag, and the disk-full degraded flag
        and recoveries.
        """
        return self.observability.snapshot()

    def metrics_text(self):
        """The Prometheus-style text exposition of :meth:`metrics`."""
        return self.observability.render_prometheus()

    def slow_queries(self):
        """Retained slow-query log entries, oldest first."""
        return self.observability.slow_queries()

    def serve_ops(self, host="127.0.0.1", port=0):
        """Start an HTTP ops endpoint over this database; returns the
        running :class:`~repro.obs.ops.OpsServer` (caller stops it)."""
        from repro.obs.ops import OpsServer
        return OpsServer(self, host=host, port=port).start()

    def stats(self):
        """Every subsystem's counters in one nested dict.

        Keys: ``buffer`` (pool hits/misses/evictions/...), ``indexes``
        (handle-cache counters), ``recovery`` (None for in-memory databases),
        ``scrub`` (zeroes until the scrubber has run), ``queries`` (the
        hub's query counters).
        """
        pool = self._context.pool.stats
        index = self.index_stats
        buffer_stats = {
            "hits": pool.hits,
            "misses": pool.misses,
            "requests": pool.requests,
            "hit_ratio": pool.hit_ratio,
            "evictions": pool.evictions,
            "writebacks": pool.writebacks,
            "max_pinned": pool.max_pinned,
        }
        index_stats = {
            "hits": index.hits,
            "misses": index.misses,
            "loads": index.loads,
            "creations": index.creations,
            "writebacks": index.writebacks,
            "invalidations": index.invalidations,
        }
        recovery = None
        if self.recovery_stats is not None:
            r = self.recovery_stats
            recovery = {
                "clean": r.clean,
                "replayed_groups": r.replayed_groups,
                "replayed_pages": r.replayed_pages,
                "discarded_groups": r.discarded_groups,
                "torn_groups": r.torn_groups,
                "free_pages_recovered": r.free_pages_recovered,
                "leaked_pages": r.leaked_pages,
            }
        if self._scrubber is not None:
            scrub = self._scrubber.stats()
        else:
            scrub = {"entries_checked": 0, "pages_read": 0, "clean": 0,
                     "corrupt": 0, "quarantined": 0, "cycles_completed": 0}
        replication = None
        if self._replication is not None:
            rep = self._replication.stats
            replication = {
                "lag_segments": rep.lag_segments,
                "segments_shipped": rep.segments_shipped,
                "segments_applied": rep.segments_applied,
                "apply_retries": rep.apply_retries,
                "transient_errors": rep.transient_errors,
                "torn_segments_seen": rep.torn_segments_seen,
                "divergence_refusals": rep.divergence_refusals,
                "failovers": rep.failovers,
                "last_applied_sequence": rep.last_applied_sequence,
            }
        retention = None
        if self._retention is not None:
            retention = self._retention.stats.snapshot()
        disk_full = {
            "degraded": self._degraded_reason is not None,
            "reason": self._degraded_reason,
            "commit_failures": self._disk_full_commit_failures,
            "recoveries": self._disk_full_recoveries,
        }
        snap = self.observability.snapshot()
        queries = {
            "total": snap["repro_queries_total"],
            "errors": snap["repro_query_errors_total"],
            "rows": snap["repro_query_rows_total"],
            "slow": snap["repro_slow_queries_total"],
        }
        queries.update(self.observability.query_quantiles())
        return {
            "buffer": buffer_stats,
            "indexes": index_stats,
            "recovery": recovery,
            "replication": replication,
            "retention": retention,
            "disk_full": disk_full,
            "scrub": scrub,
            "queries": queries,
        }

    def _register_collectors(self):
        """Mirror the counters some test, bench or operator reads into
        pull-refreshed gauges (``db.stats()`` serves the rest at
        ``/varz``; docs/OBSERVABILITY.md names each metric's reader).
        """
        def derived():
            disk = self._context.disk
            versions = getattr(disk, "versions", None)
            oldest = versions.min_pinned() if versions is not None else None
            return {
                "sessions": len(self._sessions),
                "lag": 0 if oldest is None else disk.commit_sequence - oldest,
                "degraded": int(self._degraded_reason is not None),
                "recoveries": self._disk_full_recoveries,
            }

        for stats, spec in (
            (self._context.pool.stats, (
                ("repro_buffer_hits", "hits", "Buffer pool page hits"),
            )),
            (self._indexes.stats, (
                ("repro_index_handle_hits", "hits",
                 "Index handle-cache hits"),
            )),
            (lambda: self.recovery_stats or {}, (
                ("repro_journal_torn_groups", "torn_groups",
                 "Non-empty journal/archive groups that failed to decode"),
            )),
            (derived, (
                ("repro_sessions_active", "sessions",
                 "Open snapshot sessions"),
                ("repro_snapshot_lag", "lag",
                 "Commits the oldest pinned snapshot trails the head by"),
                ("repro_disk_full_degraded", "degraded",
                 "1 while the database is read-only because a commit hit "
                 "ENOSPC"),
                ("repro_disk_full_recoveries", "recoveries",
                 "Read-only degradations cleared by a later successful "
                 "commit"),
            )),
        ):
            self.observability.metrics.mirror(stats, spec, name="database")

    def verify(self):
        """Check every stored index's structural invariants.

        Returns the number of trees verified; raises on any violation.
        """
        from repro.indexes.xrtree import check_xrtree

        verified = 0
        for tag in self.tags():
            tree = self._tree_for(tag)
            if tree is not None:
                check_xrtree(tree)
                verified += 1
        return verified

    # -- integrity scrubbing -------------------------------------------------------

    @property
    def scrubber(self):
        """The database's online integrity scrubber (created lazily)."""
        if self._scrubber is None:
            self._scrubber = IntegrityScrubber(
                self._catalog, self._context.pool, manager=self._indexes
            )
        return self._scrubber

    def scrub(self, io_budget=None):
        """Run one budgeted scrub step; returns its ``ScrubReport``.

        Structures found corrupt are quarantined: queries touching them
        raise :class:`~repro.storage.scrub.IndexQuarantinedError` until
        they are rebuilt (:meth:`rebuild_index`).
        """
        self._stage_registry()  # the scrubber's sync is a commit
        return self.scrubber.step(io_budget=io_budget)

    def rebuild_index(self, tag):
        """Rebuild ``tag``'s XR-tree from its surviving leaf records.

        Clears the quarantine on success; returns a ``RebuildResult``.
        """
        self._stage_registry()  # the scrubber's sync is a commit
        return self.scrubber.rebuild(_tree_name(tag))

    def find_ancestors(self, tag, point):
        """All stored ``tag`` elements containing the corpus position."""
        tree = self._tree_for(tag)
        return tree.find_ancestors(point) if tree else []

    def locate(self, entry):
        """Map a stored entry back to (doc name, local start, local end)."""
        info = self._documents[entry.doc_id]
        return (info["name"], entry.start - info["offset"],
                entry.end - info["offset"])

    # -- internals ------------------------------------------------------------------------

    def _tree_for(self, tag):
        """The live XR-tree handle for ``tag`` (cached by the manager), or
        None when it has none; quarantine fails fast (see
        :func:`_stored_tree`)."""
        return _stored_tree(self._indexes, tag, self._scrubber)

    def _forget_session(self, session):
        self._sessions.discard(session)

    def _load_registry(self):
        """Read the document registry: live documents keyed by id, the next
        id and region base to hand out, and the tags that have a tree.

        Stored as JSON ``{"documents": [{"id", "name", "offset", "span",
        "elements"}, ...], "next_id", "next_base", "tags"}`` holding live
        documents only.  Files written before ids were stored keep every
        document ever added in id order, removed ones marked
        ``"removed": true``; that form is still read (a standby restored
        from an old backup opens one) and is rewritten on the next commit
        that changes the registry.
        """
        from repro.storage.catalog import CatalogError

        try:
            stored = json.loads(self._catalog.load_blob(_REGISTRY))
        except CatalogError:
            stored = {"documents": [], "tags": [], "next_base": 0}
        self._documents = {}
        for position, info in enumerate(stored["documents"], start=1):
            if not info.pop("removed", False):
                self._documents[info.pop("id", position)] = info
        self._next_id = stored.get("next_id", len(stored["documents"]) + 1)
        self._next_base = stored["next_base"]
        self._tags = stored["tags"]
        self._registry_dirty = False

    def _stage_registry(self):
        """Stage the registry blob if an add or remove dirtied it.  Every
        path that commits calls this first, so no commit group holds trees
        without the documents they index."""
        if self._registry_dirty:
            self._save_registry()

    def _save_registry(self):
        self._catalog.save_blob(_REGISTRY, json.dumps({
            "documents": [dict(info, id=doc_id)
                          for doc_id, info in self._documents.items()],
            "next_id": self._next_id,
            "next_base": self._next_base,
            "tags": self._tags,
        }).encode("utf-8"))
        self._registry_dirty = False


class _RunBuilder:
    """One document's per-tag runs of :class:`ElementEntry`, for
    :meth:`XmlDatabase.add_document`.

    As :func:`parse_document`'s consumer it builds them from the parse
    events, with no element tree: an element's entry joins its tag's run
    when the element opens (so each run is start-ordered) and gets its
    ``end`` when it closes, before any page or cursor can hold it.
    ``ptr`` is the element's document-order ordinal.  :meth:`walk` builds
    the same runs from a parsed :class:`~repro.xmldata.model.Document`.
    """

    __slots__ = ("doc_id", "offset", "per_tag", "open_entries", "count",
                 "depth", "span")

    def __init__(self, doc_id, offset):
        self.doc_id = doc_id
        self.offset = offset
        self.per_tag = defaultdict(list)
        self.open_entries = []
        self.count = 0
        self.depth = 0
        self.span = 0

    def open(self, tag, attributes, start, level):
        entry = ElementEntry(self.doc_id, start + self.offset, 0, level,
                             False, self.count)
        self.count += 1
        self.per_tag[tag].append(entry)
        self.open_entries.append(entry)
        if level > self.depth:
            self.depth = level

    def close(self, end):
        self.open_entries.pop().end = end + self.offset
        self.span = end

    def text(self, payload):
        pass

    def result(self):
        return self

    def walk(self, document):
        offset = self.offset
        for node in document:
            self.per_tag[node.tag].append(ElementEntry(
                self.doc_id, node.start + offset, node.end + offset,
                node.level, False, self.count,
            ))
            self.count += 1
            self.depth = max(self.depth, node.level)
        self.span = document.root.end


def _tree_name(tag):
    name = "tag:%s" % tag
    if len(name.encode("utf-8")) > 32:
        raise XmlDatabaseError("tag name too long to catalogue: %r" % tag)
    return name


def _stored_tree(manager, tag, scrubber):
    """``tag``'s XR-tree in ``manager``, or None when it has none — as a
    tag too long to catalogue never has: no document holding one is
    ever stored, so a read that names one answers empty.

    The one tree loader of live and snapshot reads.  Fails fast with
    :class:`~repro.storage.scrub.IndexQuarantinedError` when ``scrubber``
    (the database's, or None) has quarantined the tag's tree — before
    any join starts, instead of mid-join on a checksum.
    """
    try:
        name = _tree_name(tag)
    except XmlDatabaseError:
        return None
    if scrubber is not None and scrubber.is_quarantined(name):
        raise IndexQuarantinedError(name, scrubber.quarantined[name])
    return manager.get_xrtree(name)
