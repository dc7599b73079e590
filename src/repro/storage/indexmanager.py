"""Live, write-back handles for the catalogued XR-trees.

The catalog (:mod:`repro.storage.catalog`) makes index structures
*reopenable*: tree metadata (root page, height, size, capacities) lives in
catalog entries, and ``load_xrtree``/``save_xrtree`` reconstruct or persist
one tree at a time.  What it does not provide is a *lifecycle*: every
``load_`` call scans catalog pages and builds a fresh Python object, and
every mutation would force an immediate ``save_``.

:class:`IndexManager` is that lifecycle — a ``{name: handle}`` map under one
lock:

* **one live tree per name** — the first request loads (or creates) the
  ``XRTree``, every later one returns the same object.  A handle is a
  handful of integers and its pages belong to the buffer pool, so handles
  stay until :meth:`discard`, :meth:`drop` or :meth:`close`;
* **dirty tracking** — callers :meth:`mark_dirty` a handle they mutate, which
  decides whose catalog entry the next flush rewrites;
* **batched write-back** — catalog saves happen on :meth:`flush` and
  :meth:`close`, not once per mutation;
* **instrumentation** — :class:`IndexManagerStats` counts handle hits and
  misses, catalog loads, creations, write-backs and invalidations, surfaced
  through ``StorageContext.index_stats``.

Usage::

    manager = IndexManager(catalog, pool)
    tree = manager.get_or_create_xrtree("tag:employee")
    manager.mark_dirty("tag:employee")
    tree.insert(entry)
    ...
    manager.flush()        # batched catalog write-back
    manager.close()
"""

import threading
from dataclasses import dataclass

from repro.storage.catalog import CatalogError
from repro.storage.errors import StorageError


class IndexManagerError(StorageError):
    """Lifecycle misuse: unknown handles, kind mismatches, use after close."""


@dataclass
class IndexManagerStats:
    """Counters for handle requests served by an :class:`IndexManager`.

    ``hits``/``misses`` count requests served from the handle map versus
    not; ``loads`` counts catalog deserializations (the expensive path the
    map exists to avoid); ``creations`` counts fresh trees registered through
    ``get_or_create_xrtree``; ``writebacks`` counts catalog metadata saves;
    ``invalidations`` counts handles discarded or dropped without
    write-back.

    ``max_pinned`` is not a manager counter: owners that expose both
    layers through one stats object (``XmlDatabase.index_stats``) stamp
    the buffer pool's pinned-frame high-water mark here.
    """

    hits: int = 0
    misses: int = 0
    loads: int = 0
    creations: int = 0
    writebacks: int = 0
    invalidations: int = 0
    max_pinned: int = 0

    @property
    def requests(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    def reset(self):
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.creations = 0
        self.writebacks = 0
        self.invalidations = 0
        self.max_pinned = 0

    def snapshot(self):
        return IndexManagerStats(self.hits, self.misses, self.loads,
                                 self.creations, self.writebacks,
                                 self.invalidations, self.max_pinned)


class IndexHandle:
    """One live tree plus its write-back state."""

    __slots__ = ("name", "structure", "dirty", "persisted")

    def __init__(self, name, structure, dirty, persisted):
        self.name = name
        self.structure = structure
        self.dirty = dirty
        self.persisted = persisted  # has a catalog entry on disk


class IndexManager:
    """Write-back XR-tree handles over one catalog, one per name."""

    def __init__(self, catalog, pool):
        self._catalog = catalog
        self._pool = pool
        self.stats = IndexManagerStats()
        self._handles = {}  # name -> IndexHandle
        self._closed = False
        # One lock guards the map and the load path, so two threads missing
        # on the same tag cannot deserialize its catalog entry twice.
        self._lock = threading.RLock()

    # -- handle access ---------------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise IndexManagerError("index manager is closed")

    def _get(self, name, factory=None):
        """The handle for ``name``, loading or creating it on a miss.

        Returns None when the name is not catalogued and no ``factory``
        was given.
        """
        self._check_open()
        with self._lock:
            handle = self._handles.get(name)
            if handle is not None:
                self.stats.hits += 1
                return handle
            self.stats.misses += 1
            try:
                structure = self._catalog.load_xrtree(name)
            except CatalogError:
                if name in self._catalog.names():
                    # Catalogued, but as another kind: surface the conflict
                    # instead of shadowing the entry with a fresh structure.
                    raise IndexManagerError(
                        "catalogued structure %r is not an xr-tree" % name)
                if factory is None:
                    return None
                handle = IndexHandle(name, factory(),
                                     dirty=True, persisted=False)
                self.stats.creations += 1
            else:
                handle = IndexHandle(name, structure,
                                     dirty=False, persisted=True)
                self.stats.loads += 1
            self._handles[name] = handle
            return handle

    def _writeback(self, handle):
        self._catalog.save_xrtree(handle.name, handle.structure)
        handle.dirty = False
        handle.persisted = True
        self.stats.writebacks += 1

    def get_xrtree(self, name):
        """The live XR-tree catalogued as ``name``, or None."""
        handle = self._get(name)
        return handle.structure if handle is not None else None

    def get_or_create_xrtree(self, name, **tree_options):
        """The live XR-tree for ``name``, creating an empty one if absent.

        A created tree is registered dirty; its catalog entry materializes
        on the next write-back.
        """
        def factory():
            from repro.indexes.xrtree import XRTree

            return XRTree(self._pool, **tree_options)

        return self._get(name, factory).structure

    # -- lifecycle -------------------------------------------------------------

    def mark_dirty(self, name):
        """Record that ``name``'s tree is being mutated, so the next flush
        rewrites its catalog entry; raises if there is no such handle."""
        self._check_open()
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                raise IndexManagerError(
                    "mark_dirty(%r): no such handle; fetch it first" % name)
            handle.dirty = True

    def is_dirty(self, name):
        with self._lock:
            handle = self._handles.get(name)
            return bool(handle and handle.dirty)

    def flush(self):
        """Write every dirty handle's metadata back to the catalog.

        Handles stay live.  Returns the number of write-backs performed.

        A write-back that fails does not abandon the rest: every dirty
        handle is attempted, failed ones stay dirty, and one
        :class:`IndexManagerError` naming each unflushed handle is raised
        at the end (chained to the first underlying failure).  Only
        :class:`~repro.storage.errors.StorageError` is collected this way —
        anything else (e.g. an injected crash) propagates immediately.
        """
        self._check_open()
        with self._lock:
            handles = list(self._handles.values())
        written = 0
        failures = []
        for handle in handles:
            if handle.dirty:
                try:
                    self._writeback(handle)
                except StorageError as exc:
                    failures.append((handle.name, exc))
                else:
                    written += 1
        if failures:
            names = ", ".join(repr(n) for n, _ in failures)
            error = IndexManagerError(
                "flush failed for %d handle(s) — still dirty: %s (first "
                "cause: %s)" % (len(failures), names, failures[0][1])
            )
            error.failed = [n for n, _ in failures]
            raise error from failures[0][1]
        return written

    def discard(self, name):
        """Drop a live handle *without* write-back (invalidation).

        The catalog entry, if any, is untouched; a later ``get`` reloads
        from the catalog.  Unknown names are ignored.
        """
        self._check_open()
        with self._lock:
            if self._handles.pop(name, None) is not None:
                self.stats.invalidations += 1

    def drop(self, name):
        """Remove ``name`` entirely: the live handle and the catalog entry.

        Used to tombstone structures that became empty (e.g. a tag whose
        last element was deleted).  Tolerates handles that were created but
        never written back, and names that are not resident.
        """
        self._check_open()
        with self._lock:
            handle = self._handles.pop(name, None)
            if handle is not None:
                self.stats.invalidations += 1
        if handle is None or handle.persisted:
            try:
                self._catalog.remove(name)
            except CatalogError:
                if handle is not None:
                    raise

    def close(self):
        """Flush every dirty handle and release them all (idempotent)."""
        if self._closed:
            return
        self.flush()
        with self._lock:
            self._handles.clear()
            self._closed = True

    @property
    def closed(self):
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- introspection ---------------------------------------------------------

    def __contains__(self, name):
        return name in self._handles

    def __len__(self):
        return len(self._handles)

    def resident(self):
        """Live handle names, oldest first, with dirty flags."""
        with self._lock:
            return [(handle.name, handle.dirty)
                    for handle in self._handles.values()]
