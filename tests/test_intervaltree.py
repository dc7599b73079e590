"""Tests for the in-memory interval tree, the stabbing-query oracle
(tests/intervaltree.py)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import entry
from tests.intervaltree import IntervalTree
from tests.test_xrtree_property import tree_shape_to_entries


def brute_stabbing(entries, point):
    return sorted((e for e in entries if e.start < point < e.end),
                  key=lambda e: e.start)


class TestBasics:
    def test_empty(self):
        tree = IntervalTree([])
        assert len(tree) == 0
        assert tree.stabbing(5) == []
        assert tree.items() == []

    def test_single_interval(self):
        tree = IntervalTree([entry(2, 9)])
        assert [e.start for e in tree.stabbing(5)] == [2]
        assert tree.stabbing(2) == []   # strict: the start is not inside
        assert tree.stabbing(9) == []
        assert tree.stabbing(1) == []
        assert tree.stabbing(10) == []

    def test_nested_chain(self):
        entries = [entry(i, 100 - i) for i in range(1, 20)]
        tree = IntervalTree(entries)
        assert len(tree) == 19
        assert [e.start for e in tree.stabbing(50)] == list(range(1, 20))
        assert [e.start for e in tree.stabbing(19)] == list(range(1, 19))

    def test_disjoint_intervals(self):
        entries = [entry(i * 10, i * 10 + 5) for i in range(1, 10)]
        tree = IntervalTree(entries)
        assert [e.start for e in tree.stabbing(32)] == [30]
        assert tree.stabbing(37) == []

    def test_items_roundtrip(self):
        entries = tree_shape_to_entries([2, 2, 1, 3])
        tree = IntervalTree(entries)
        assert tree.items() == sorted(entries, key=lambda e: e.start)
        assert len(tree) == len(entries)

    def test_enclosing_excludes_self(self):
        entries = [entry(1, 10), entry(2, 5)]
        tree = IntervalTree(entries)
        ancestors = tree.enclosing(entries[1])
        assert [e.start for e in ancestors] == [1]


class TestAgainstBruteForce:
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=80),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=80, deadline=None)
    def test_stabbing_matches_oracle(self, shape, point):
        entries = tree_shape_to_entries(shape)
        tree = IntervalTree(entries)
        assert tree.stabbing(point) == brute_stabbing(entries, point)

    def test_arbitrary_intervals_not_just_nested(self):
        # The interval tree handles arbitrary (even partially overlapping)
        # intervals — the generality XR-trees trade away (Section 1).
        rng = random.Random(8)
        entries = []
        for _ in range(300):
            a, b = sorted(rng.sample(range(1, 1000), 2))
            entries.append(entry(a, b))
        tree = IntervalTree(entries)
        for _ in range(100):
            point = rng.randrange(0, 1001)
            # Random intervals may duplicate (start, end); compare as
            # multisets of regions rather than ordered entry lists.
            got = sorted((e.start, e.end) for e in tree.stabbing(point))
            expected = sorted((e.start, e.end)
                              for e in brute_stabbing(entries, point))
            assert got == expected


class TestAgainstXRTree:
    def test_agrees_with_find_ancestors(self, dept_data):
        from repro.core.api import StorageContext, build_xr_tree

        entries = sorted(dept_data.ancestors + dept_data.descendants,
                         key=lambda e: e.start)
        memory_tree = IntervalTree(entries)
        context = StorageContext(page_size=512, buffer_pages=64)
        disk_tree = build_xr_tree(entries, context.pool)
        rng = random.Random(11)
        top = max(e.end for e in entries)
        for _ in range(120):
            point = rng.randrange(1, top + 3)
            assert [e.start for e in memory_tree.stabbing(point)] == \
                [e.start for e in disk_tree.find_ancestors(point)]
