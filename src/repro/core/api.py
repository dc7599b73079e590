"""High-level facade over the storage substrate, indexes and joins.

Typical use::

    from repro.core import StorageContext, XRTreeIndex, structural_join
    from repro.workloads import department_dataset

    data = department_dataset(target_elements=20000)
    outcome = structural_join(data.ancestors, data.descendants,
                              algorithm="xr-stack")
    print(outcome.stats.pairs, outcome.page_misses)
"""

import time
from dataclasses import dataclass, field

from repro.indexes.xrtree import XRTree
from repro.joins import nested_loop_join
from repro.joins.base import JoinStats
from repro.joins.registry import (  # the builders are public here too
    INPUT_KINDS,
    algorithm_names,
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
    get_algorithm,
)
from repro.storage.buffer import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.disk import DEFAULT_PAGE_SIZE, FileDisk, InMemoryDisk
from repro.storage.indexmanager import IndexManagerStats
from repro.storage.timemodel import DiskTimeModel

#: The built-in :func:`structural_join` algorithms: the paper's Table 1.
#: The registry (:mod:`repro.joins.registry`) may grow beyond these.
ALGORITHMS = algorithm_names()


class StorageContext:
    """A disk plus buffer pool with measurement helpers.

    Mirrors the paper's experimental system: a storage manager, a buffer
    pool of a fixed number of frames (default 100 pages, as in Section 6.1)
    and index modules on top.  Usable as a context manager::

        with StorageContext(path="corpus.pages") as context:
            ...
    """

    def __init__(self, page_size=DEFAULT_PAGE_SIZE,
                 buffer_pages=DEFAULT_POOL_PAGES, path=None, time_model=None,
                 disk=None, durability="journal", archive_dir=None):
        if disk is not None:
            # An externally built disk (e.g. a FaultInjectingDisk wrapper,
            # or a FileDisk with a non-default durability mode).
            self.disk = disk
        elif path is None:
            self.disk = InMemoryDisk(page_size)
        else:
            # durability="archive" keeps applied commit groups as
            # sequence-numbered segments (in ``archive_dir``, default
            # ``<path>.archive``) — the stream backups, point-in-time
            # recovery and standby replicas consume.
            self.disk = FileDisk(path, page_size, durability=durability,
                                 archive_dir=archive_dir)
        self.pool = BufferPool(self.disk, buffer_pages)
        self.time_model = time_model or DiskTimeModel()
        self.indexes = None  # attached IndexManager, if any

    @classmethod
    def from_pool(cls, pool, time_model=None):
        """Wrap an existing buffer pool (and its disk) in a context.

        Lets measurement helpers run against structures that were built
        elsewhere — e.g. prebuilt join inputs handed to
        :func:`structural_join`.
        """
        context = cls.__new__(cls)
        context.disk = pool.disk
        context.pool = pool
        context.time_model = time_model or DiskTimeModel()
        context.indexes = None
        return context

    def attach_index_manager(self, manager):
        """Adopt ``manager`` so its stats surface here and it closes with
        the context."""
        self.indexes = manager
        return manager

    def reset_stats(self):
        self.disk.stats.reset()
        self.pool.reset_stats()
        if self.indexes is not None:
            self.indexes.stats.reset()

    @property
    def page_misses(self):
        return self.pool.stats.misses

    @property
    def writebacks(self):
        return self.pool.stats.writebacks

    @property
    def index_stats(self):
        """Handle counters of the attached index manager.

        Always returns an :class:`IndexManagerStats` (all zero when no
        manager is attached), so callers can read counters unconditionally.
        """
        if self.indexes is not None:
            return self.indexes.stats
        return IndexManagerStats()

    @property
    def recovery_stats(self):
        """What recovery-on-open did for a file-backed disk (else None).

        A :class:`~repro.storage.disk.RecoveryStats` for a ``FileDisk``
        (``clean`` is True when no group replay or discard was needed);
        None for in-memory disks, which have nothing to recover.
        """
        return getattr(self.disk, "recovery_stats", None)

    def derived_seconds(self, elements_scanned=0):
        """Model-based elapsed time for the I/O performed so far."""
        return self.time_model.elapsed_seconds(
            self.pool.stats.misses, self.pool.stats.writebacks,
            elements_scanned,
        )

    def close(self):
        """Flush the attached index manager and the pool, then close a
        file-backed disk (committing its final group).  Idempotent."""
        if self.indexes is not None:
            self.indexes.close()
        close = getattr(self.disk, "close", None)
        if close is not None:
            if not getattr(self.disk, "closed", False):
                self.pool.flush_all()
            close()

    def abandon(self):
        """Release resources *without* committing anything.

        The fencing teardown: no index write-back, no pool flush, no
        final commit group — file descriptors are released through the
        disk's ``abort()`` (or ``close()`` when it has none), so it is
        safe on a disk that crashed mid-commit and must not be allowed
        to ack state on behalf of a node that is being fenced off.
        Idempotent, and never raises for a dead disk.
        """
        abort = getattr(self.disk, "abort", None)
        if abort is not None:
            abort()
            return
        close = getattr(self.disk, "close", None)
        if close is not None and not getattr(self.disk, "closed", False):
            close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


class XRTreeIndex:
    """User-facing XR-tree over one element set.

    Wraps :class:`~repro.indexes.xrtree.XRTree` with entry-level conveniences
    (ancestors/descendants/parent/children of an element) and owns a storage
    context unless one is supplied.  Usable as a context manager; on exit an
    *owned* context is closed, a supplied one is left to its owner::

        with XRTreeIndex.build(entries) as index:
            ...
    """

    def __init__(self, context=None, **tree_options):
        self._owns_context = context is None
        self.context = context or StorageContext()
        self.tree = XRTree(self.context.pool, **tree_options)

    @classmethod
    def build(cls, entries, context=None, fill_factor=1.0, **tree_options):
        """Bulk-load a new index from start-sorted element entries."""
        index = cls(context, **tree_options)
        index.tree.bulk_load(entries, fill_factor)
        return index

    def __len__(self):
        return self.tree.size

    def insert(self, entries):
        """Insert one entry or a start-sorted run (:meth:`XRTree.insert`)."""
        self.tree.insert(entries)

    def delete(self, start, end=None):
        """Remove the entry starting at ``start``, or with ``end`` every
        entry starting in ``[start, end]`` (:meth:`XRTree.delete`)."""
        return self.tree.delete(start, end)

    def items(self):
        return self.tree.items()

    def ancestors_of(self, element, counter=None):
        """All indexed ancestors of ``element`` (FindAncestors)."""
        return [
            entry for entry in self.tree.find_ancestors(element.start, counter)
            if entry.end > element.end
        ]

    def descendants_of(self, element, counter=None):
        """All indexed descendants of ``element`` (FindDescendants)."""
        return self.tree.find_descendants(element.start, element.end, counter)

    def parent_of(self, element, counter=None):
        """The indexed parent, or None (FindParent, Section 5.3)."""
        matches = self.tree.find_ancestors(
            element.start, counter, required_level=element.level - 1
        )
        return matches[-1] if matches else None

    def children_of(self, element, counter=None):
        """All indexed children (FindChildren, Section 5.3)."""
        return self.tree.find_descendants(
            element.start, element.end, counter,
            required_level=element.level + 1,
        )

    def check(self):
        from repro.indexes.xrtree import check_xrtree

        return check_xrtree(self.tree)

    def close(self):
        """Close the owned storage context (no-op for a supplied one)."""
        if self._owns_context:
            self.context.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


@dataclass
class JoinOutcome:
    """Everything measured about one join run.

    ``page_requests`` counts *logical* page fetches (hits + misses) — the
    deterministic cost unit quotas and profiles use; ``page_misses`` the
    physical subset the paper's elapsed-time model prices.
    """

    algorithm: str
    pairs: list
    stats: JoinStats
    page_misses: int = 0
    writebacks: int = 0
    wall_seconds: float = 0.0
    derived_seconds: float = 0.0
    build_page_misses: int = 0
    page_requests: int = 0

    @property
    def pair_count(self):
        return self.stats.pairs


#: Every structure a join input may already be (an :class:`XRTreeIndex`
#: stands for its tree).
_STRUCTURES = tuple(structure for structure, _build in INPUT_KINDS.values())


def _resolve_join_inputs(values, input_kind, context, fill_factor):
    """The two join inputs as ``input_kind``'s structure, and their context.

    Each value is either a start-sorted entry list, built fresh, or an
    already-built structure — :class:`XRTreeIndex`,
    :class:`~repro.indexes.xrtree.XRTree`,
    :class:`~repro.indexes.bptree.BPlusTree` or
    :class:`~repro.storage.pagedlist.PagedElementList` — used as-is (the
    rebuild is skipped).  With no ``context`` the first prebuilt side
    supplies it (its pool), and entry lists are built there; with no
    prebuilt side either, a fresh in-memory context.  Returns
    ``(context, [ancestor input, descendant input])``.
    """
    structure, build = INPUT_KINDS[input_kind]
    unwrapped = []
    for side, value in zip(("ancestor", "descendant"), values):
        if isinstance(value, XRTreeIndex):
            context = context or value.context
            value = value.tree
        if isinstance(value, _STRUCTURES):
            if not isinstance(value, structure):
                raise ValueError(
                    "prebuilt %s input is a %s but the algorithm needs a %s"
                    % (side, type(value).__name__, structure.__name__)
                )
            context = context or StorageContext.from_pool(value.pool)
            if value.pool is not context.pool:
                raise ValueError(
                    "prebuilt inputs must live in the join context's buffer "
                    "pool; pass context=<their StorageContext> (or none at "
                    "all)"
                )
        unwrapped.append(value)
    context = context or StorageContext()
    return context, [
        value if isinstance(value, _STRUCTURES)
        else build(value, context.pool, fill_factor)
        for value in unwrapped
    ]


def structural_join(ancestors, descendants, algorithm="xr-stack",
                    parent_child=False, context=None, collect=True,
                    fill_factor=1.0, runtime=None, profile=None,
                    cold=True):
    """Run one structural join end to end and measure it.

    ``ancestors`` and ``descendants`` are either start-sorted element-entry
    lists — in which case the function builds the representation the chosen
    algorithm consumes (paged lists, B+-trees or XR-trees) inside
    ``context`` (a fresh in-memory context by default) — or already-built
    structures (``XRTreeIndex``, ``XRTree``, ``BPlusTree``,
    ``PagedElementList``), which are joined directly without a rebuild.
    Algorithms are resolved through :mod:`repro.joins.registry`, so
    registered extensions work alongside the built-in names.

    With ``cold=True`` (the default) the buffer pool is flushed and
    cleared and the context's statistics reset before the join, so it is
    measured cold — matching the paper's per-run measurements.  That is a
    *global* side effect on the shared pool; callers joining inside a
    live system (sessions, the server) pass ``cold=False``, which leaves
    the pool and every counter untouched and measures the join purely by
    before/after deltas — cached pages then legitimately count as hits.
    A :class:`JoinOutcome` is returned either way.

    ``runtime`` is an optional :class:`~repro.query.runtime.QueryContext`;
    when given, the join honours its deadline, cancellation token, page
    budget and row cap (raising the corresponding
    :class:`~repro.query.runtime.QueryRuntimeError` subclass).

    ``profile`` is an optional :class:`~repro.obs.profile.QueryProfile`
    (also picked up from ``runtime.profile``): the measured join is
    recorded as one operator with its scan/skip/page actuals.
    """
    spec = get_algorithm(algorithm)
    context, (a_input, d_input) = _resolve_join_inputs(
        (ancestors, descendants), spec.input_kind, context, fill_factor)
    pool = context.pool
    if cold:
        pool.flush_all()
        pool.clear()  # start the measured join with a cold buffer pool
        build_misses = pool.stats.misses
        context.reset_stats()
        base = None
    else:
        base = pool.stats.snapshot()
        build_misses = 0
    stats = JoinStats()
    if runtime is not None:
        runtime.start(pool)
        stats.runtime = runtime
        if profile is None:
            profile = runtime.profile
    started = time.perf_counter()
    if profile is not None:
        sizes = {}
        for key, value in (("input_a", ancestors), ("input_d", descendants)):
            try:
                sizes[key] = len(value)
            except TypeError:
                sizes[key] = getattr(value, "size", 0)
        with profile.operator("%s structural join" % algorithm, "join",
                              algorithm=algorithm, stats=stats, pool=pool,
                              **sizes) as op:
            pairs, stats = spec.runner(a_input, d_input,
                                       parent_child=parent_child,
                                       collect=collect, stats=stats)
            op.rows_out = stats.pairs
    else:
        pairs, stats = spec.runner(a_input, d_input,
                                   parent_child=parent_child,
                                   collect=collect, stats=stats)
    wall = time.perf_counter() - started
    if base is None:
        measured = pool.stats
        derived = context.derived_seconds(stats.elements_scanned)
    else:
        measured = pool.stats.delta(base)
        derived = context.time_model.elapsed_seconds(
            measured.misses, measured.writebacks, stats.elements_scanned)
    return JoinOutcome(
        algorithm=algorithm,
        pairs=pairs,
        stats=stats,
        page_misses=measured.misses,
        writebacks=measured.writebacks,
        wall_seconds=wall,
        derived_seconds=derived,
        build_page_misses=build_misses,
        page_requests=measured.requests,
    )


def oracle_join(ancestors, descendants, parent_child=False):
    """Brute-force reference join (testing helper)."""
    return nested_loop_join(ancestors, descendants, parent_child)
