"""Tests for the B+sp / B+psp pointer-enhanced joins."""

import pytest

from repro.core.api import StorageContext, build_bplus_tree
from repro.joins import nested_loop_join
from repro.joins.base import sort_pairs
from repro.joins.bplus_variants import (
    bplus_psp_join,
    bplus_sp_join,
    pack_pointers,
    unpack_pointers,
    with_containment_pointers,
)
from tests.conftest import entry
from tests.test_xrtree_property import tree_shape_to_entries


def run_variant(join, ancestors, descendants, parent_child=False):
    context = StorageContext(page_size=512, buffer_pages=64)
    a_tree = build_bplus_tree(with_containment_pointers(ancestors),
                              context.pool)
    d_tree = build_bplus_tree(descendants, context.pool)
    return join(a_tree, d_tree, parent_child=parent_child)


class TestPointerPacking:
    def test_roundtrip(self):
        packed = pack_pointers(123456, 789012)
        assert unpack_pointers(packed) == (123456, 789012)

    def test_zero_pointers(self):
        assert unpack_pointers(pack_pointers(0, 0)) == (0, 0)

    def test_max_start_values(self):
        big = 2 ** 31 - 1
        assert unpack_pointers(pack_pointers(big, big)) == (big, big)


class TestWithContainmentPointers:
    def test_sibling_points_past_subtree(self):
        entries = [entry(1, 100), entry(2, 50), entry(3, 10),
                   entry(20, 40), entry(60, 90), entry(200, 300)]
        augmented = with_containment_pointers(entries)
        siblings = [unpack_pointers(e.ptr)[1] for e in augmented]
        assert siblings == [200, 60, 20, 60, 200, 0]

    def test_parent_is_nearest_container(self):
        entries = [entry(1, 100), entry(2, 50), entry(3, 10),
                   entry(20, 40), entry(60, 90), entry(200, 300)]
        augmented = with_containment_pointers(entries)
        parents = [unpack_pointers(e.ptr)[0] for e in augmented]
        assert parents == [0, 1, 2, 2, 1, 0]

    def test_regions_preserved(self, dept_data):
        augmented = with_containment_pointers(dept_data.ancestors)
        assert [(e.start, e.end) for e in augmented] == \
            [(e.start, e.end) for e in dept_data.ancestors]


class TestVariantCorrectness:
    @pytest.mark.parametrize("join", [bplus_sp_join, bplus_psp_join])
    def test_department_matches_oracle(self, join, dept_data):
        pairs, _ = run_variant(join, dept_data.ancestors,
                               dept_data.descendants)
        assert sort_pairs(pairs) == nested_loop_join(
            dept_data.ancestors, dept_data.descendants
        )

    @pytest.mark.parametrize("join", [bplus_sp_join, bplus_psp_join])
    def test_conference_matches_oracle(self, join, conf_data):
        pairs, _ = run_variant(join, conf_data.ancestors,
                               conf_data.descendants)
        assert sort_pairs(pairs) == nested_loop_join(
            conf_data.ancestors, conf_data.descendants
        )

    @pytest.mark.parametrize("join", [bplus_sp_join, bplus_psp_join])
    def test_parent_child(self, join, dept_data):
        pairs, _ = run_variant(join, dept_data.ancestors,
                               dept_data.descendants, parent_child=True)
        assert sort_pairs(pairs) == nested_loop_join(
            dept_data.ancestors, dept_data.descendants, parent_child=True
        )

    @pytest.mark.parametrize("join", [bplus_sp_join, bplus_psp_join])
    def test_empty_inputs(self, join):
        pairs, stats = run_variant(join, [], [entry(1, 2)])
        assert pairs == []
        pairs, _ = run_variant(join, [entry(1, 10)], [])
        assert pairs == []

    @pytest.mark.parametrize("join", [bplus_sp_join, bplus_psp_join])
    def test_random_trees_match_oracle(self, join):
        for shape in ([1, 2, 3, 1], [3, 3, 3], [2, 0, 2, 1, 2],
                      [1] * 20, [3, 2, 1, 0, 1, 2, 3]):
            entries = tree_shape_to_entries(shape)
            ancestors = entries[::2]
            descendants = entries[1::2]
            pairs, _ = run_variant(join, ancestors, descendants)
            assert sort_pairs(pairs) == nested_loop_join(
                ancestors, descendants
            )

    def test_self_join_overlap(self, dept_data):
        emps = dept_data.ancestors
        context = StorageContext(page_size=512, buffer_pages=64)
        a_tree = build_bplus_tree(with_containment_pointers(emps),
                                  context.pool)
        d_tree = build_bplus_tree(emps, context.pool)
        pairs, _ = bplus_psp_join(a_tree, d_tree)
        assert sort_pairs(pairs) == nested_loop_join(emps, emps)


class TestPredecessor:
    def test_predecessor_within_leaf(self, pool):
        from repro.indexes.bptree import BPlusTree

        tree = BPlusTree(pool)
        tree.bulk_load([entry(k, k + 100) for k in (10, 20, 30)])
        assert tree.predecessor(25).start == 20
        assert tree.predecessor(20).start == 10

    def test_predecessor_crosses_leaves(self, pool):
        from repro.indexes.bptree import BPlusTree

        tree = BPlusTree(pool)
        tree.bulk_load([entry(k, k + 5000) for k in range(1, 500)])
        for probe in (2, 50, 123, 499, 10000):
            expected = max((k for k in range(1, 500) if k < probe),
                           default=None)
            got = tree.predecessor(probe)
            assert (got.start if got else None) == expected

    def test_predecessor_before_everything(self, pool):
        from repro.indexes.bptree import BPlusTree

        tree = BPlusTree(pool)
        tree.bulk_load([entry(10, 20)])
        assert tree.predecessor(10) is None
        assert tree.predecessor(1) is None

    def test_predecessor_empty_tree(self, pool):
        from repro.indexes.bptree import BPlusTree

        assert BPlusTree(pool).predecessor(5) is None


class TestScanBehaviour:
    def test_sp_skips_like_basic_bplus(self, dept_data):
        from repro.joins import bplus_join

        context = StorageContext(page_size=512, buffer_pages=64)
        augmented = with_containment_pointers(dept_data.ancestors)
        a_tree = build_bplus_tree(augmented, context.pool)
        d_tree = build_bplus_tree(dept_data.descendants, context.pool)
        context2 = StorageContext(page_size=512, buffer_pages=64)
        a2 = build_bplus_tree(dept_data.ancestors, context2.pool)
        d2 = build_bplus_tree(dept_data.descendants, context2.pool)
        for cold in (context, context2):
            cold.pool.flush_all()
            cold.pool.clear()
            cold.reset_stats()
        _, sp_stats = bplus_sp_join(a_tree, d_tree, collect=False)
        _, basic_stats = bplus_join(a2, d2, collect=False)
        # Same skipping decisions, so the same number of elements scanned.
        assert sp_stats.elements_scanned == basic_stats.elements_scanned
        assert sp_stats.pairs == basic_stats.pairs
        # "Similar behavior as that of B+" (Section 6.1) in pages too.
        assert context.pool.stats.misses <= \
            context2.pool.stats.misses * 1.5 + 10
