"""Tests for the buffer pool's replacement: LRU over the one frame table."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.errors import BufferPoolError
from repro.storage.pages import RawPage


def fill(pool, count):
    ids = []
    for index in range(count):
        page = pool.new_page(RawPage(b"p%d" % index))
        ids.append(page.page_id)
        pool.unpin(page, dirty=True)
    return ids


# The ids keep the "[lru]" they had while a second policy existed.
@pytest.mark.parametrize("policy", ["lru"])
class TestPolicySelection:
    def test_basic_operation(self, policy):
        pool = BufferPool(InMemoryDisk(256), capacity=3)
        ids = fill(pool, 10)  # 7 evictions
        assert pool.stats.evictions == 7
        for page_id in ids:   # everything still readable
            page = pool.fetch(page_id)
            pool.unpin(page)

    def test_pinned_frames_never_evicted(self, policy):
        pool = BufferPool(InMemoryDisk(256), capacity=3)
        held = pool.new_page(RawPage(b"held"))
        fill(pool, 8)
        assert held.page_id in pool._frames
        pool.unpin(held, dirty=True)

    def test_all_pinned_raises(self, policy):
        pool = BufferPool(InMemoryDisk(256), capacity=2)
        pool.new_page(RawPage(b"a"))
        pool.new_page(RawPage(b"b"))
        with pytest.raises(BufferPoolError):
            pool.new_page(RawPage(b"c"))

    def test_clear_resets_policy_state(self, policy):
        pool = BufferPool(InMemoryDisk(256), capacity=4)
        ids = fill(pool, 4)
        pool.unpin(pool.fetch(ids[0]))  # recency the clear must forget
        pool.clear()
        assert pool.resident_count == 0
        new_ids = fill(pool, 5)  # one eviction, of the oldest new frame
        assert list(pool._frames) == new_ids[1:]
        page = pool.fetch(ids[0])
        pool.unpin(page)


class TestLruSemantics:
    def test_exact_lru_order(self):
        pool = BufferPool(InMemoryDisk(256), capacity=3)
        a, b, c = fill(pool, 3)
        pool.unpin(pool.fetch(a))       # recency order is now b, c, a
        victims = []
        for _ in range(3):
            before = set(pool._frames)
            fill(pool, 1)
            victims.extend(before - set(pool._frames))
        assert victims == [b, c, a]

    def test_pinned_frame_is_skipped_and_keeps_its_place(self):
        pool = BufferPool(InMemoryDisk(256), capacity=3)
        a, b, c = fill(pool, 3)
        held = pool.fetch(a)
        pool.unpin(pool.fetch(b))
        pool.unpin(pool.fetch(c))       # recency order a, b, c; a pinned
        fill(pool, 1)
        assert b not in pool._frames    # a skipped: the next oldest goes
        pool.unpin(held)
        fill(pool, 1)
        assert a not in pool._frames    # ...and a was still the oldest
