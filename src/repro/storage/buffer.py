"""LRU buffer pool over a simulated disk.

All index and data pages are accessed through a buffer pool, mirroring the
paper's experimental system ("storage manager, buffer pool manager, B+-tree
and XR-tree index modules").  The pool keeps decoded page objects resident in
a bounded number of frames; page-miss counts drive the reproduced elapsed-time
results, since the paper reports that "the total elapsed time is dominated by
the I/O's performed, more specifically, the number of page misses".
"""

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.storage.errors import BufferPoolError, ChecksumError
from repro.storage.pages import Page

DEFAULT_POOL_PAGES = 100  # the paper's fixed buffer pool size


@dataclass
class BufferStats:
    """Counters for logical page requests served by the pool.

    ``max_pinned`` is the high-water mark of *simultaneously pinned*
    frames — the number a per-query page quota must stay above to be
    satisfiable, and the observable ceiling for admission-control tuning.
    ``reset`` rebases it to the pool's current pinned count (a high-water
    mark has no meaningful zero while pages stay pinned).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    max_pinned: int = 0

    def reset(self, pinned_now=0):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.max_pinned = pinned_now

    @property
    def requests(self):
        return self.hits + self.misses

    @property
    def hit_ratio(self):
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    def snapshot(self):
        return BufferStats(self.hits, self.misses, self.evictions,
                           self.writebacks, self.max_pinned)

    def delta(self, earlier):
        # max_pinned is a high-water mark, not a counter: the delta view
        # keeps the later absolute value rather than a meaningless diff.
        return BufferStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.writebacks - earlier.writebacks,
            self.max_pinned,
        )


class _Latch:
    """Re-entrant pool latch that counts contended acquisitions.

    The try-lock fast path means an uncontended acquire costs one C-level
    call; only when another thread holds the latch does ``waits`` tick and
    the blocking acquire begin.  ``waits`` is itself updated without a
    lock — it is a diagnostic counter, and an occasional lost increment
    is acceptable where an extra lock on the hot path is not.
    :meth:`BufferPool.fetch` and :meth:`BufferPool.unpin` run the same
    protocol inline on ``lock``, without the two Python-level calls of a
    ``with`` block.
    """

    __slots__ = ("lock", "waits")

    def __init__(self):
        self.lock = threading.RLock()
        self.waits = 0

    def __enter__(self):
        if not self.lock.acquire(False):
            self.waits += 1
            self.lock.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.lock.release()
        return False


class BufferPool:
    """A fixed-capacity page cache with pin semantics.

    Pages are pinned while in use and must be unpinned by the caller; only
    unpinned frames are eviction candidates.  Dirty frames are written back to
    disk on eviction and on :meth:`flush_all`.  Replacement is LRU: the frame
    table is kept in recency order and the victim is its first unpinned
    frame.

    Every pool operation runs under one re-entrant latch, making the pool
    safe for concurrent callers (the server's live sessions share the main
    pool).  Contended acquisitions are counted in :attr:`latch_waits`.  A
    per-session snapshot pool is owned by one thread and takes the same
    latch uncontended: one C-level acquire and release per page visit.
    """

    def __init__(self, disk, capacity=DEFAULT_POOL_PAGES):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferStats()
        #: Optional :class:`~repro.obs.trace.Tracer`; when attached and
        #: enabled, every fetch emits a ``page-fetch`` event.  The default
        #: (None) keeps the hot path at a single predicate check.
        self.tracer = None
        self._frames = OrderedDict()  # page_id -> Page, least recent first
        self._pinned = 0   # frames with pin_count > 0 (kept incrementally)
        self._latch = _Latch()

    @property
    def latch_waits(self):
        """Contended latch acquisitions since the pool was built."""
        return self._latch.waits

    @property
    def page_size(self):
        return self.disk.page_size

    # -- page access ----------------------------------------------------------

    def fetch(self, page_id):
        """Pin and return the page with ``page_id``, reading it if absent.

        Every miss decodes through :meth:`Page.decode`, which verifies the
        page checksum first — a torn write or flipped bit surfaces here as
        :class:`~repro.storage.errors.ChecksumError` (tagged with the page
        id) instead of silently decoding garbage.
        """
        latch = self._latch
        lock = latch.lock
        if not lock.acquire(False):
            latch.waits += 1
            lock.acquire()
        try:
            stats = self.stats
            tracer = self.tracer
            page = self._frames.get(page_id)
            if page is not None:
                stats.hits += 1
                if tracer is not None and tracer.enabled:
                    tracer.event("page-fetch", page=page_id, hit=True)
                self._frames.move_to_end(page_id)
            else:
                stats.misses += 1
                if tracer is not None and tracer.enabled:
                    tracer.event("page-fetch", page=page_id, hit=False)
                self._make_room()
                data = self.disk.read(page_id)
                try:
                    page = Page.decode(data, self.disk.page_size)
                except ChecksumError as exc:
                    raise ChecksumError("page %d: %s" % (page_id, exc),
                                        page_id=page_id) from exc
                page.page_id = page_id
                self._frames[page_id] = page
            if not page.pin_count:
                # 0 -> 1: one more frame pinned; track the high-water mark.
                self._pinned = pinned = self._pinned + 1
                if pinned > stats.max_pinned:
                    stats.max_pinned = pinned
            page.pin_count += 1
            return page
        finally:
            lock.release()

    def new_page(self, page):
        """Allocate a disk page for ``page``, pin it and cache it."""
        if page.page_id is not None:
            raise BufferPoolError("page already has id %r" % (page.page_id,))
        with self._latch:
            self._make_room()
            page.page_id = self.disk.allocate()
            page.dirty = True
            page.pin_count = 1
            self._pinned += 1
            self.stats.max_pinned = max(self.stats.max_pinned, self._pinned)
            self._frames[page.page_id] = page
            return page

    def unpin(self, page, dirty=False):
        """Release one pin on ``page``; ``dirty`` marks it modified."""
        latch = self._latch
        lock = latch.lock
        if not lock.acquire(False):
            latch.waits += 1
            lock.acquire()
        try:
            if page.pin_count <= 0:
                raise BufferPoolError(
                    "unpin of page %r with no pins" % (page.page_id,))
            if dirty:
                page.dirty = True
            page.pin_count -= 1
            if not page.pin_count:
                self._pinned -= 1
        finally:
            lock.release()

    @contextmanager
    def pinned(self, page_id):
        """Context manager pinning ``page_id`` for the duration of the block."""
        page = self.fetch(page_id)
        try:
            yield page
        finally:
            self.unpin(page, dirty=page.dirty)

    def free_page(self, page):
        """Drop ``page`` from the pool and release its disk page.

        The caller must hold the only pin.
        """
        with self._latch:
            if page.pin_count != 1:
                raise BufferPoolError(
                    "freeing page %r with pin count %d"
                    % (page.page_id, page.pin_count)
                )
            del self._frames[page.page_id]
            self.disk.free(page.page_id)
            page.page_id = None
            page.pin_count = 0
            self._pinned -= 1
            page.dirty = False

    # -- maintenance ------------------------------------------------------------

    def flush_all(self):
        """Write back every dirty frame (pages stay cached).

        On a durable disk this is also a commit point: the written-back
        pages are staged into the next commit group and ``sync()`` makes
        them durable as one atomic group.
        """
        with self._latch:
            for page in self._frames.values():
                if page.dirty:
                    self._writeback(page)
            sync = getattr(self.disk, "sync", None)
            if sync is not None:
                sync()

    def clear(self):
        """Flush and drop every frame; fails if any page is still pinned."""
        with self._latch:
            for page in self._frames.values():
                if page.pin_count:
                    raise BufferPoolError(
                        "clear with page %r still pinned" % (page.page_id,)
                    )
            self.flush_all()
            self._frames.clear()

    def reset_stats(self):
        with self._latch:
            self.stats.reset(pinned_now=self._pinned)

    @property
    def pinned_count(self):
        return self._pinned

    @property
    def resident_count(self):
        return len(self._frames)

    # -- internals ---------------------------------------------------------------

    def _writeback(self, page):
        self.stats.writebacks += 1
        self.disk.write(page.page_id, page.encode(self.disk.page_size))
        page.dirty = False

    def _make_room(self):
        if len(self._frames) < self.capacity:
            return
        for victim in self._frames.values():
            if victim.pin_count == 0:
                break
        else:
            raise BufferPoolError("all %d frames are pinned" % self.capacity)
        if victim.dirty:
            self._writeback(victim)
        self.stats.evictions += 1
        del self._frames[victim.page_id]
