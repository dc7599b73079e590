"""Behavioural tests for XR-tree operations (Algorithms 1-5) against
brute-force oracles on generated documents."""

import random

import pytest

from repro.indexes.xrtree import XRTree, check_xrtree
from repro.joins.base import JoinStats
from tests.conftest import entry


@pytest.fixture(scope="module")
def emp_tree_and_entries():
    from repro.workloads.datasets import department_dataset
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import InMemoryDisk

    data = department_dataset(2500, seed=13)
    entries = sorted(data.ancestors + data.descendants,
                     key=lambda e: e.start)
    pool = BufferPool(InMemoryDisk(512), capacity=64)
    tree = XRTree(pool)
    tree.bulk_load(entries)
    return tree, entries


def oracle_ancestors(entries, point):
    return [e for e in entries if e.start < point < e.end]


def oracle_descendants(entries, start, end):
    return [e for e in entries if start < e.start < end]


class TestFindAncestors:
    def test_matches_oracle_at_element_starts(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        rng = random.Random(1)
        for probe in rng.sample(entries, 150):
            got = tree.find_ancestors(probe.start)
            expected = oracle_ancestors(entries, probe.start)
            assert [a.start for a in got] == [a.start for a in expected]

    def test_matches_oracle_at_arbitrary_points(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        rng = random.Random(2)
        top = max(e.end for e in entries)
        for _ in range(150):
            point = rng.randint(1, top + 5)
            got = [a.start for a in tree.find_ancestors(point)]
            expected = [a.start for a in oracle_ancestors(entries, point)]
            assert got == expected

    def test_results_sorted_outermost_first(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        for probe in entries[::37]:
            got = tree.find_ancestors(probe.start)
            starts = [a.start for a in got]
            assert starts == sorted(starts)
            for outer, inner in zip(got, got[1:]):
                assert outer.contains(inner)

    def test_after_start_filters(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        for probe in entries[::53]:
            full = tree.find_ancestors(probe.start)
            if len(full) < 2:
                continue
            cutoff = full[0].start
            tail = tree.find_ancestors(probe.start, after_start=cutoff)
            assert [a.start for a in tail] == \
                [a.start for a in full if a.start > cutoff]

    def test_required_level_selects_parent(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        for probe in entries[::41]:
            full = tree.find_ancestors(probe.start)
            parents = tree.find_ancestors(probe.start,
                                          required_level=probe.level - 1)
            assert [a.start for a in parents] == \
                [a.start for a in full if a.level == probe.level - 1]
            assert len(parents) <= 1  # an element has at most one parent

    def test_counter_counts_productive_touches(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        deep = max(entries, key=lambda e: len(oracle_ancestors(
            entries, e.start)))
        stats = JoinStats()
        got = tree.find_ancestors(deep.start, counter=stats)
        assert stats.elements_scanned >= len(got)

    def test_empty_tree(self, pool):
        assert XRTree(pool).find_ancestors(5) == []

    def test_point_before_and_after_data(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        top = max(e.end for e in entries)
        assert tree.find_ancestors(0) == []
        assert tree.find_ancestors(top + 100) == []


class TestFindDescendants:
    def test_matches_oracle(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        rng = random.Random(3)
        for probe in rng.sample(entries, 100):
            got = tree.find_descendants(probe.start, probe.end)
            expected = oracle_descendants(entries, probe.start, probe.end)
            assert [d.start for d in got] == [d.start for d in expected]

    def test_required_level_selects_children(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        for probe in entries[::47]:
            got = tree.find_descendants(probe.start, probe.end,
                                        required_level=probe.level + 1)
            expected = [d for d in oracle_descendants(
                entries, probe.start, probe.end)
                if d.level == probe.level + 1]
            assert [d.start for d in got] == [d.start for d in expected]

    def test_counter_counts_scanned(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        wide = max(entries, key=lambda e: e.end - e.start)
        stats = JoinStats()
        got = tree.find_descendants(wide.start, wide.end, counter=stats)
        # The range scan examines each output plus the terminating entry.
        assert len(got) <= stats.elements_scanned <= len(entries) + 1

    def test_empty_range(self, emp_tree_and_entries):
        tree, _ = emp_tree_and_entries
        assert tree.find_descendants(0, 1) == []


class TestCursors:
    def test_seek_and_seek_after(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        middle = entries[len(entries) // 2]
        assert next(iter(tree.seek(middle.start))).start == middle.start
        after = next(iter(tree.seek_after(middle.start))).start
        assert after == entries[len(entries) // 2 + 1].start

    def test_first_and_items(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        assert next(iter(tree.first())).start == entries[0].start
        assert [e.start for e in tree.items()] == \
            [e.start for e in entries]

    def test_search(self, emp_tree_and_entries):
        tree, entries = emp_tree_and_entries
        probe = entries[7]
        assert tree.search(probe.start).end == probe.end
        assert tree.search(probe.start + 100000) is None


class TestDynamicUpdates:
    def test_insert_then_query(self, pool):
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=3)
        regions = [(1, 100), (2, 40), (3, 10), (12, 30), (13, 20),
                   (45, 90), (50, 80), (55, 70), (60, 65), (95, 99)]
        for s, e in regions:
            tree.insert(entry(s, e))
        check_xrtree(tree)
        assert [a.start for a in tree.find_ancestors(60)] == [1, 45, 50, 55]
        assert [d.start for d in tree.find_descendants(45, 90)] == \
            [50, 55, 60]

    def test_delete_unflags_or_removes_stab(self, pool):
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=3)
        regions = [(i * 10 + 1, i * 10 + 5) for i in range(20)]
        regions.append((2, 195))  # one giant region stabbed by many keys
        for s, e in sorted(regions):
            tree.insert(entry(s, e))
        check_xrtree(tree)
        assert tree.delete(2) is not None   # remove the giant region
        check_xrtree(tree)
        assert tree.find_ancestors(100) == []

    def test_delete_missing_returns_none(self, pool):
        tree = XRTree(pool)
        tree.insert(entry(1, 5))
        assert tree.delete(99) is None
        assert tree.size == 1

    def test_delete_from_empty(self, pool):
        assert XRTree(pool).delete(1) is None

    def test_insert_delete_reinsert(self, pool):
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=3)
        for s, e in [(1, 50), (2, 20), (3, 10), (25, 45), (30, 40)]:
            tree.insert(entry(s, e))
        tree.delete(2)
        check_xrtree(tree)
        tree.insert(entry(2, 20))
        check_xrtree(tree)
        assert [a.start for a in tree.find_ancestors(3)] == [1, 2]

    def test_mass_delete_to_empty_releases_all_pages(self, pool, disk):
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=3)
        regions = [(i, 2000 - i) for i in range(1, 300)]  # fully nested
        for s, e in regions:
            tree.insert(entry(s, e))
        check_xrtree(tree)
        for s, _ in regions:
            assert tree.delete(s) is not None
        check_xrtree(tree)
        pool.flush_all()
        assert disk.allocated_page_count == 0

    def test_fully_nested_chain_queries(self, pool):
        # Worst case for stab lists: every element nests in every earlier
        # one, so almost everything is stabbed.
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=3)
        n = 150
        for i in range(1, n + 1):
            tree.insert(entry(i, 4000 - i))
        check_xrtree(tree)
        got = [a.start for a in tree.find_ancestors(n + 50)]
        assert got == list(range(1, n + 1))
        got = [d.start for d in tree.find_descendants(1, 4000 - 1)]
        assert got == list(range(2, n + 1))
