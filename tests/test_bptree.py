"""Unit tests for the disk-based B+-tree (repro.indexes.bptree)."""

import pytest

from repro.indexes.bptree import BPlusTree, BPlusTreeError
from tests.conftest import entry


def make_tree(pool, keys, bulk=True, fill=1.0):
    tree = BPlusTree(pool)
    entries = [entry(k, k + 100000) for k in sorted(keys)]
    if bulk:
        tree.bulk_load(entries, fill)
    else:
        for e in entries:
            tree.insert(e)
    return tree


def head(cursor):
    """The first entry a cursor yields, or None past the end."""
    return next(iter(cursor), None)


class TestBulkLoad:
    def test_empty(self, pool):
        tree = BPlusTree(pool)
        tree.bulk_load([])
        assert tree.size == 0
        assert list(tree.items()) == []

    def test_single_leaf(self, pool):
        tree = make_tree(pool, range(1, 6))
        assert tree.height == 1
        assert [e.start for e in tree.items()] == [1, 2, 3, 4, 5]
        tree.check()

    def test_multi_level(self, pool):
        tree = make_tree(pool, range(1, 2001))
        assert tree.height >= 3
        assert tree.size == 2000
        tree.check()

    def test_fill_factor_grows_page_count(self, pool):
        full = make_tree(pool, range(1, 501), fill=1.0)
        loose = make_tree(pool, range(1000001, 1000501), fill=0.5)
        assert loose.page_count() > full.page_count()

    def test_unsorted_input_rejected(self, pool):
        tree = BPlusTree(pool)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([entry(5, 10), entry(1, 2)])

    def test_duplicate_input_rejected(self, pool):
        tree = BPlusTree(pool)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([entry(5, 10), entry(5, 11)])

    def test_bulk_load_twice_rejected(self, pool):
        tree = make_tree(pool, [1, 2, 3])
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([entry(9, 10)])


class TestSearch:
    def test_search_present(self, pool):
        tree = make_tree(pool, range(10, 1000, 10))
        found = tree.search(500)
        assert found is not None and found.start == 500

    def test_search_absent(self, pool):
        tree = make_tree(pool, range(10, 1000, 10))
        assert tree.search(505) is None

    def test_search_empty_tree(self, pool):
        assert BPlusTree(pool).search(1) is None

    def test_seek_lands_on_geq(self, pool):
        tree = make_tree(pool, [10, 20, 30])
        assert head(tree.seek(15)).start == 20
        assert head(tree.seek(20)).start == 20
        assert head(tree.seek(31)) is None

    def test_seek_after_strictly_greater(self, pool):
        tree = make_tree(pool, [10, 20, 30])
        assert head(tree.seek_after(20)).start == 30
        assert head(tree.seek_after(9)).start == 10
        assert head(tree.seek_after(30)) is None

    def test_first_cursor(self, pool):
        tree = make_tree(pool, [7, 3, 9])
        assert head(tree.first()).start == 3
        assert head(BPlusTree(pool).first()) is None

    def test_range_scan(self, pool):
        tree = make_tree(pool, range(1, 101))
        assert [e.start for e in tree.range_scan(20, 29)] == list(range(20, 30))

    def test_range_scan_crosses_leaves(self, pool):
        tree = make_tree(pool, range(1, 501))
        got = [e.start for e in tree.range_scan(100, 400)]
        assert got == list(range(100, 401))

    def test_cursor_walks_whole_tree(self, pool):
        keys = list(range(1, 301))
        tree = make_tree(pool, keys)
        assert [e.start for e in tree.first()] == keys


class TestInsert:
    def test_insert_into_empty(self, pool):
        tree = BPlusTree(pool)
        tree.insert(entry(5, 9))
        assert tree.size == 1
        assert tree.search(5).end == 9

    def test_inserts_stay_sorted(self, pool):
        tree = BPlusTree(pool)
        for k in [50, 10, 90, 30, 70, 20, 80, 40, 60, 100]:
            tree.insert(entry(k, k + 1))
        assert [e.start for e in tree.items()] == sorted(
            [50, 10, 90, 30, 70, 20, 80, 40, 60, 100]
        )
        tree.check()

    def test_splits_propagate(self, pool):
        tree = make_tree(pool, range(1, 1201), bulk=False)
        assert tree.height >= 3
        tree.check()

    def test_duplicate_insert_rejected(self, pool):
        tree = BPlusTree(pool)
        tree.insert(entry(5, 9))
        with pytest.raises(BPlusTreeError):
            tree.insert(entry(5, 99))

    def test_descending_insert_order(self, pool):
        tree = BPlusTree(pool)
        for k in range(500, 0, -1):
            tree.insert(entry(k, k + 1000))
        tree.check()
        assert tree.size == 500


class TestDelete:
    def test_delete_returns_entry(self, pool):
        tree = make_tree(pool, [1, 2, 3])
        removed = tree.delete(2)
        assert removed.start == 2
        assert tree.search(2) is None
        assert tree.size == 2

    def test_delete_absent_returns_none(self, pool):
        tree = make_tree(pool, [1, 2, 3])
        assert tree.delete(99) is None
        assert tree.size == 3

    def test_delete_from_empty(self, pool):
        assert BPlusTree(pool).delete(1) is None

    def test_delete_everything_frees_pages(self, pool, disk):
        tree = make_tree(pool, range(1, 301), bulk=False)
        for k in range(1, 301):
            assert tree.delete(k) is not None
        assert tree.size == 0
        assert tree.root_id == 0
        pool.flush_all()
        assert disk.allocated_page_count == 0

    def test_delete_rebalances(self, pool):
        tree = make_tree(pool, range(1, 801), bulk=False)
        for k in range(1, 801, 2):
            tree.delete(k)
        tree.check()
        assert [e.start for e in tree.items()] == list(range(2, 801, 2))

    def test_interleaved_insert_delete(self, pool):
        tree = BPlusTree(pool)
        live = set()
        for k in range(1, 401):
            tree.insert(entry(k, k + 1000))
            live.add(k)
            if k % 3 == 0:
                victim = k // 3
                tree.delete(victim)
                live.discard(victim)
        tree.check()
        assert sorted(e.start for e in tree.items()) == sorted(live)


class TestStructure:
    def test_no_pin_leaks(self, pool):
        tree = make_tree(pool, range(1, 501), bulk=False)
        tree.search(100)
        list(tree.range_scan(5, 400))
        tree.delete(250)
        tree.insert(entry(9999, 10000))
        assert pool.pinned_count == 0

    def test_survives_buffer_pressure(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import InMemoryDisk

        pool = BufferPool(InMemoryDisk(256), capacity=8)
        tree = BPlusTree(pool)
        for k in range(1, 1001):
            tree.insert(entry(k, k + 5000))
        tree.check()
        assert tree.size == 1000

    def test_tiny_explicit_capacity_rejected(self, pool):
        with pytest.raises(BPlusTreeError):
            BPlusTree(pool, leaf_capacity=1)
        with pytest.raises(BPlusTreeError):
            BPlusTree(pool, internal_capacity=1)

    def test_minimal_page_size_still_works(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import InMemoryDisk

        pool = BufferPool(InMemoryDisk(64), capacity=8)
        tree = BPlusTree(pool)
        for k in range(1, 60):
            tree.insert(entry(k, k + 100))
        tree.check()
        assert tree.size == 59
