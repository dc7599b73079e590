"""Session — the query surface of :class:`~repro.core.database.XmlDatabase`.

A session is where reads happen.  Two kinds exist behind one interface,
and both build their query engine the same way — over a pool and a tree
loader — differing only in which pool and which trees:

* **snapshot sessions** (``db.session()``) pin the last committed
  sequence and serve every query from that frozen state: their own
  :class:`~repro.storage.snapshot.SnapshotDisk`, their own buffer pool,
  their own catalog and index handles.  Writers keep
  committing; the session keeps seeing its pinned sequence until
  released.  Many snapshot sessions run concurrently; the server pools
  them, one per caller holding a slot.
* **live sessions** (``db.session(snapshot=False)``) read the database's
  own pool and trees and therefore see staged, not-yet-committed writes —
  the single-threaded behavior every pre-session caller expects.
  ``XmlDatabase.query``/``explain`` are one-line delegates to one cached
  live session.

The engine keeps no state between queries and no copy of an element set:
every query reads the trees it joins, so nothing needs invalidating when a
write changes them, and the live session may serve concurrent callers.
The server still hands a pooled snapshot session to one caller at a
time, so its pool's latch is never contended.

A query through either kind allocates no page and commits nothing (a
snapshot's disk refuses to).  Neither kind queues or sheds a query — a
caller governs one with its own
:class:`~repro.query.runtime.QueryContext`, and the
:class:`~repro.server.Server` bounds concurrent callers.  Both feed the
shared observability hub — a query is a query no matter which surface
ran it.

Sessions are context managers; releasing one frees its pinned page
versions::

    with db.session() as s:
        r = s.query("//employee/name")
        assert s.sequence <= db.commit_sequence
"""

import json

from repro.core.api import StorageContext
from repro.indexes.bptree import items
from repro.query.engine import PathQueryEngine
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog, CatalogError
from repro.storage.indexmanager import IndexManager
from repro.storage.snapshot import SnapshotDisk


class SessionError(Exception):
    """Session misuse: queries on a closed session, write attempts."""


class Session:
    """One client's query surface over a database.

    Snapshot sessions expose ``sequence`` (the pinned commit sequence);
    live sessions report ``sequence`` None.  All query entry points take
    the shared ``(runtime=None, profile=None)`` trio.
    """

    def __init__(self, database, snapshot=True):
        self._db = database
        self._snapshot = snapshot
        self._closed = False
        self._disk = None
        self._manager = None
        self._registry = None
        self.queries_run = 0
        if snapshot:
            context = self._open_snapshot(database)
            loader = self._load_tree
            self.sequence = self._disk.sequence
        else:
            context = database._context
            loader = database._tree_for
            self.sequence = None
        self._engine = PathQueryEngine(
            self, context=context, index_loader=loader,
            observability=database.observability)

    def _open_snapshot(self, database):
        """Pin the last commit; returns the storage context over it."""
        base_context = database._context
        self._disk = SnapshotDisk(base_context.disk)
        try:
            pool = BufferPool(self._disk, base_context.pool.capacity)
            pool.tracer = database.observability.tracer
            context = StorageContext.from_pool(
                pool, time_model=base_context.time_model)
            catalog = Catalog.open(pool)
            self._manager = IndexManager(catalog, pool)
            try:
                self._registry = json.loads(
                    catalog.load_blob("__documents__"))
            except CatalogError:
                self._registry = {"documents": [], "tags": [],
                                  "next_base": 0}
        except BaseException:
            self._disk.close()  # release the pin; a broken pin leaks COW
            raise
        return context

    def _load_tree(self, tag):
        from repro.core.database import _stored_tree

        return _stored_tree(self._manager, tag, self._db._scrubber)

    # -- the query surface -----------------------------------------------------

    def query(self, path, runtime=None, profile=None):
        """Evaluate a path/twig expression in this session's view.

        Snapshot sessions answer from the pinned sequence; live sessions
        from the database's current (staged included) state.  ``runtime``
        is the query's own :class:`~repro.query.runtime.QueryContext`.
        """
        return self._engine_for_query().evaluate(
            path, runtime=runtime, profile=profile)

    def explain(self, path, analyze=False, runtime=None, profile=None):
        """The engine's plan for ``path`` in this session's view.

        Same trio as :meth:`query`; ``analyze=True`` (or a supplied
        ``profile``) executes the query and appends measured actuals.
        """
        return self._engine_for_query().explain(
            path, analyze=analyze, runtime=runtime, profile=profile)

    def entries_for_tag(self, tag):
        """The corpus-wide element set for ``tag`` in this view."""
        self._check_open()
        tree = self._engine.index_for(tag)
        return [] if tree is None else list(items(tree))

    def tags(self):
        """Tags visible in this view."""
        self._check_open()
        if not self._snapshot:
            return self._db.tags()
        return list(self._registry["tags"])

    def _engine_for_query(self):
        self._check_open()
        self.queries_run += 1
        return self._engine

    # -- lifecycle -------------------------------------------------------------

    @property
    def is_snapshot(self):
        return self._snapshot

    @property
    def closed(self):
        return self._closed

    def close(self):
        """Release the snapshot pin and drop session state (idempotent).

        Pre-commit page images retained only for this session become
        prunable the moment the pin is released.
        """
        if self._closed:
            return
        self._closed = True
        self._db._forget_session(self)
        if self._manager is not None:
            # Session handles are read-only, so close() writes nothing
            # back; it just invalidates the cache.
            self._manager.close()
        if self._disk is not None:
            self._disk.close()

    def _check_open(self):
        if self._closed:
            raise SessionError("session is closed")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def __repr__(self):
        state = "closed" if self._closed else "open"
        if self._snapshot:
            return "<Session snapshot seq=%d %s>" % (self.sequence, state)
        return "<Session live %s>" % state
