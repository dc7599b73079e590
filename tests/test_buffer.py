"""Tests for the LRU buffer pool (repro.storage.buffer)."""

import threading
import time

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.errors import BufferPoolError, ChecksumError
from repro.storage.pages import RawPage


def new_raw(pool, payload):
    page = pool.new_page(RawPage(payload))
    pool.unpin(page, dirty=True)
    return page.page_id


class TestBasics:
    def test_new_page_assigns_id_and_pins(self, pool):
        page = pool.new_page(RawPage(b"a"))
        assert page.page_id is not None
        assert page.pin_count == 1
        assert page.dirty

    def test_fetch_hits_cached_page(self, pool):
        page_id = new_raw(pool, b"cached")
        pool.reset_stats()
        page = pool.fetch(page_id)
        assert page.payload == b"cached"
        assert pool.stats.hits == 1
        assert pool.stats.misses == 0
        pool.unpin(page)

    def test_fetch_after_eviction_is_a_miss(self):
        pool = BufferPool(InMemoryDisk(256), capacity=2)
        first = new_raw(pool, b"one")
        new_raw(pool, b"two")
        new_raw(pool, b"three")  # evicts "one"
        pool.reset_stats()
        page = pool.fetch(first)
        assert page.payload == b"one"
        assert pool.stats.misses == 1
        pool.unpin(page)

    def test_unpin_without_pin_raises(self, pool):
        page = pool.new_page(RawPage(b"x"))
        pool.unpin(page)
        with pytest.raises(BufferPoolError):
            pool.unpin(page)

    def test_new_page_with_existing_id_raises(self, pool):
        page = pool.new_page(RawPage(b"x"))
        pool.unpin(page, dirty=True)
        with pytest.raises(BufferPoolError):
            pool.new_page(page)

    def test_capacity_must_be_positive(self, disk):
        with pytest.raises(BufferPoolError):
            BufferPool(disk, capacity=0)


class TestEviction:
    def test_lru_order(self):
        pool = BufferPool(InMemoryDisk(256), capacity=2)
        a = new_raw(pool, b"a")
        b = new_raw(pool, b"b")
        # Touch a so b becomes the LRU victim.
        pool.unpin(pool.fetch(a))
        new_raw(pool, b"c")
        assert pool.resident_count == 2
        pool.reset_stats()
        pool.unpin(pool.fetch(a))  # hit
        assert pool.stats.hits == 1
        pool.unpin(pool.fetch(b))  # miss: b was evicted
        assert pool.stats.misses == 1

    def test_pinned_pages_are_not_evicted(self):
        pool = BufferPool(InMemoryDisk(256), capacity=2)
        pinned = pool.new_page(RawPage(b"pinned"))
        new_raw(pool, b"other")
        new_raw(pool, b"third")  # must evict "other", not the pinned page
        assert pool._frames[pinned.page_id] is pinned
        pool.unpin(pinned, dirty=True)

    def test_all_pinned_raises(self):
        pool = BufferPool(InMemoryDisk(256), capacity=2)
        pool.new_page(RawPage(b"a"))
        pool.new_page(RawPage(b"b"))
        with pytest.raises(BufferPoolError):
            pool.new_page(RawPage(b"c"))

    def test_dirty_eviction_writes_back(self):
        disk = InMemoryDisk(256)
        pool = BufferPool(disk, capacity=1)
        page_id = new_raw(pool, b"persist me")
        new_raw(pool, b"evictor")
        assert pool.stats.writebacks == 1
        # Data is durable on disk even though the frame is gone.
        fresh_pool = BufferPool(disk, capacity=1)
        page = fresh_pool.fetch(page_id)
        assert page.payload == b"persist me"
        fresh_pool.unpin(page)

    def test_clean_eviction_skips_writeback(self):
        disk = InMemoryDisk(256)
        pool = BufferPool(disk, capacity=1)
        page_id = new_raw(pool, b"v")
        pool.flush_all()  # one physical write; frame is now clean
        pool.reset_stats()
        # Evicting the clean frame must not write it again.
        new_raw(pool, b"w")
        assert pool.stats.evictions == 1
        assert pool.stats.writebacks == 0
        assert disk.stats.writes == 1
        # The evicted page is still intact on disk.
        page = pool.fetch(page_id)
        assert page.payload == b"v"
        pool.unpin(page)


class TestFlushAndClear:
    def test_flush_all_writes_dirty_pages(self, pool, disk):
        new_raw(pool, b"d1")
        new_raw(pool, b"d2")
        before = disk.stats.writes
        pool.flush_all()
        assert disk.stats.writes == before + 2
        pool.flush_all()  # now clean: no further writes
        assert disk.stats.writes == before + 2

    def test_clear_drops_frames(self, pool):
        page_id = new_raw(pool, b"x")
        pool.clear()
        assert pool.resident_count == 0
        page = pool.fetch(page_id)
        assert page.payload == b"x"
        pool.unpin(page)

    def test_clear_with_pinned_page_raises(self, pool):
        pool.new_page(RawPage(b"held"))
        with pytest.raises(BufferPoolError):
            pool.clear()

    def test_free_page_requires_single_pin(self, pool):
        page = pool.new_page(RawPage(b"bye"))
        pool.unpin(page, dirty=True)
        page = pool.fetch(page.page_id)
        fetched_again = pool.fetch(page.page_id)
        with pytest.raises(BufferPoolError):
            pool.free_page(page)
        pool.unpin(fetched_again)
        pool.free_page(page)
        assert page.page_id is None

    def test_pinned_context_manager(self, pool):
        page_id = new_raw(pool, b"ctx")
        with pool.pinned(page_id) as page:
            assert page.pin_count == 1
        assert page.pin_count == 0


class TestStats:
    def test_hit_ratio(self, pool):
        page_id = new_raw(pool, b"h")
        pool.clear()
        pool.reset_stats()
        pool.unpin(pool.fetch(page_id))   # miss
        pool.unpin(pool.fetch(page_id))   # hit
        pool.unpin(pool.fetch(page_id))   # hit
        assert pool.stats.requests == 3
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_empty(self, pool):
        assert pool.stats.hit_ratio == 0.0

    def test_snapshot_delta(self, pool):
        page_id = new_raw(pool, b"s")
        pool.clear()
        before = pool.stats.snapshot()
        pool.unpin(pool.fetch(page_id))
        delta = pool.stats.delta(before)
        assert delta.misses == 1
        assert delta.hits == 0


class TestLatch:
    """Every pool takes one latch; ``fetch`` and ``unpin`` take it inline."""

    @staticmethod
    def _in_other_thread(function):
        """Run ``function`` on a thread and return ``(thread, outcome)``."""
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(function()))
        thread.start()
        return thread, outcome

    @staticmethod
    def _wait_for(condition):
        deadline = time.monotonic() + 5
        while not condition():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.001)

    def test_a_fresh_pool_has_waited_for_nothing(self, disk):
        pool = BufferPool(disk, capacity=4)
        pool.unpin(pool.fetch(new_raw(pool, b"a")))
        assert pool.latch_waits == 0

    def test_contended_fetch_and_unpin_count_a_wait(self, pool):
        page_id = new_raw(pool, b"w")
        with pool._latch:
            thread, fetched = self._in_other_thread(
                lambda: pool.fetch(page_id))
            self._wait_for(lambda: pool.latch_waits == 1)
            assert not fetched  # blocked behind the held latch
        thread.join()
        assert fetched[0].pin_count == 1
        with pool._latch:
            thread, _ = self._in_other_thread(
                lambda: pool.unpin(fetched[0]))
            self._wait_for(lambda: pool.latch_waits == 2)
            assert fetched[0].pin_count == 1
        thread.join()
        assert fetched[0].pin_count == 0 and pool.pinned_count == 0

    def test_a_failed_fetch_releases_the_latch(self, pool, disk):
        page_id = new_raw(pool, b"torn")
        pool.clear()
        image = bytearray(disk.read(page_id))
        image[-1] ^= 0xFF
        disk.poke(page_id, bytes(image))
        with pytest.raises(ChecksumError):
            pool.fetch(page_id)
        with pytest.raises(BufferPoolError):
            pool.unpin(RawPage())
        thread, acquired = self._in_other_thread(
            lambda: pool._latch.lock.acquire(False))
        thread.join()
        assert acquired == [True]

    def test_max_pinned_tracks_the_high_water_mark(self, pool):
        ids = [new_raw(pool, b"%d" % index) for index in range(3)]
        pool.reset_stats()
        first, second = pool.fetch(ids[0]), pool.fetch(ids[1])
        again = pool.fetch(ids[0])  # a second pin on a pinned frame
        assert pool.pinned_count == 2 and pool.stats.max_pinned == 2
        for page in (first, second, again):
            pool.unpin(page)
        pool.unpin(pool.fetch(ids[2]))
        assert pool.pinned_count == 0 and pool.stats.max_pinned == 2
        pool.reset_stats()
        assert pool.stats.max_pinned == 0
