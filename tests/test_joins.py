"""Behavioural tests for the four structural-join algorithms."""

import pytest

from repro.core.api import (
    StorageContext,
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
)
from repro.joins import (
    bplus_join,
    mpmgjn_join,
    nested_loop_join,
    stack_tree_join,
    xr_stack_join,
)
from repro.joins.base import JoinStats, contains, sort_pairs
from tests.conftest import entry


def run(algorithm, ancestors, descendants, parent_child=False, collect=True):
    """Build the inputs the algorithm needs and run it."""
    context = StorageContext(page_size=512, buffer_pages=64)
    pool = context.pool
    if algorithm in (stack_tree_join, mpmgjn_join):
        a_input = build_element_list(ancestors, pool)
        d_input = build_element_list(descendants, pool)
    elif algorithm is bplus_join:
        a_input = build_bplus_tree(ancestors, pool)
        d_input = build_bplus_tree(descendants, pool)
    else:
        a_input = build_xr_tree(ancestors, pool)
        d_input = build_xr_tree(descendants, pool)
    return algorithm(a_input, d_input, parent_child=parent_child,
                     collect=collect)


ALL_JOINS = [stack_tree_join, mpmgjn_join, bplus_join, xr_stack_join]


def nested(spec):
    return [entry(s, e, level) for s, e, level in spec]


#: A hand-written scenario with all interesting shapes: nesting chains,
#: disjoint regions, unmatched ancestors and unmatched descendants.
ANCESTORS = nested([
    (1, 40, 1), (2, 20, 2), (3, 10, 3), (25, 39, 2),
    (50, 60, 1), (70, 95, 1), (72, 90, 2),
])
DESCENDANTS = nested([
    (4, 5, 4), (6, 7, 4), (12, 15, 3), (30, 31, 3),
    (45, 46, 1), (55, 56, 2), (75, 76, 3), (99, 100, 1),
])


class TestAgainstOracle:
    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_hand_written_scenario(self, algorithm):
        pairs, _ = run(algorithm, ANCESTORS, DESCENDANTS)
        assert sort_pairs(pairs) == nested_loop_join(ANCESTORS, DESCENDANTS)

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_parent_child_variant(self, algorithm):
        pairs, _ = run(algorithm, ANCESTORS, DESCENDANTS, parent_child=True)
        assert sort_pairs(pairs) == nested_loop_join(
            ANCESTORS, DESCENDANTS, parent_child=True
        )

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_department_dataset(self, algorithm, dept_data):
        pairs, _ = run(algorithm, dept_data.ancestors, dept_data.descendants)
        assert sort_pairs(pairs) == nested_loop_join(
            dept_data.ancestors, dept_data.descendants
        )

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_conference_dataset(self, algorithm, conf_data):
        pairs, _ = run(algorithm, conf_data.ancestors, conf_data.descendants)
        assert sort_pairs(pairs) == nested_loop_join(
            conf_data.ancestors, conf_data.descendants
        )

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_self_join(self, algorithm, dept_data):
        emps = dept_data.ancestors
        pairs, _ = run(algorithm, emps, emps)
        assert sort_pairs(pairs) == nested_loop_join(emps, emps)

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_reversed_roles(self, algorithm, dept_data):
        # names as "ancestors" of employees: join is empty or tiny, and the
        # algorithms must not crash or emit bogus pairs.
        pairs, _ = run(algorithm, dept_data.descendants, dept_data.ancestors)
        assert sort_pairs(pairs) == nested_loop_join(
            dept_data.descendants, dept_data.ancestors
        )


class TestEdgeCases:
    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_empty_ancestors(self, algorithm):
        pairs, stats = run(algorithm, [], DESCENDANTS)
        assert pairs == []
        assert stats.pairs == 0

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_empty_descendants(self, algorithm):
        pairs, _ = run(algorithm, ANCESTORS, [])
        assert pairs == []

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_both_empty(self, algorithm):
        pairs, _ = run(algorithm, [], [])
        assert pairs == []

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_completely_disjoint_lists(self, algorithm):
        ancestors = [entry(i * 10, i * 10 + 5) for i in range(1, 20)]
        descendants = [entry(i * 10 + 7, i * 10 + 8) for i in range(1, 20)]
        pairs, _ = run(algorithm, ancestors, descendants)
        assert pairs == []

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_ancestors_after_all_descendants(self, algorithm):
        ancestors = [entry(1000 + i, 1000 + i + 1) for i in range(0, 20, 2)]
        descendants = [entry(i, i + 1) for i in range(1, 41, 2)]
        pairs, _ = run(algorithm, ancestors, descendants)
        assert pairs == []

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_single_pair(self, algorithm):
        pairs, _ = run(algorithm, [entry(1, 10)], [entry(5, 6)])
        assert len(pairs) == 1

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_deep_chain_emits_all_pairs(self, algorithm):
        chain = [entry(i, 500 - i, i) for i in range(1, 100)]
        probe = [entry(200, 201, 100)]
        pairs, stats = run(algorithm, chain, probe)
        assert len(pairs) == 99
        assert stats.pairs == 99

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_count_only_mode(self, algorithm, dept_data):
        pairs, stats = run(algorithm, dept_data.ancestors,
                           dept_data.descendants, collect=False)
        assert pairs is None
        assert stats.pairs == len(nested_loop_join(
            dept_data.ancestors, dept_data.descendants
        ))

    @pytest.mark.parametrize("algorithm", ALL_JOINS)
    def test_cross_document_pairs_excluded(self, algorithm):
        ancestors = [entry(1, 100, doc=1), entry(200, 300, doc=2)]
        descendants = [entry(50, 60, doc=2), entry(250, 260, doc=2)]
        pairs, _ = run(algorithm, ancestors, descendants)
        # (1,100) doc 1 does not contain (50,60) doc 2.
        assert sort_pairs(pairs) == nested_loop_join(ancestors, descendants)
        assert all(a.doc_id == d.doc_id for a, d in pairs)


class TestScanAccounting:
    def test_stack_tree_scans_everything_joined(self, dept_data):
        _, stats = run(stack_tree_join, dept_data.ancestors,
                       dept_data.descendants, collect=False)
        total = len(dept_data.ancestors) + len(dept_data.descendants)
        # All ancestors are consumed; descendants after the last ancestor
        # may remain unscanned, so the count is near but never above total.
        assert total * 0.8 <= stats.elements_scanned <= total

    def test_mpmgjn_rescans_more_than_stack_tree(self, dept_data):
        _, mpm = run(mpmgjn_join, dept_data.ancestors,
                     dept_data.descendants, collect=False)
        _, stk = run(stack_tree_join, dept_data.ancestors,
                     dept_data.descendants, collect=False)
        assert mpm.elements_scanned > stk.elements_scanned

    def test_xr_stack_never_scans_more_than_stack_tree(self, dept_data):
        _, xr = run(xr_stack_join, dept_data.ancestors,
                    dept_data.descendants, collect=False)
        _, stk = run(stack_tree_join, dept_data.ancestors,
                     dept_data.descendants, collect=False)
        assert xr.elements_scanned <= stk.elements_scanned

    def test_sparse_join_lets_xr_skip_almost_everything(self):
        # All descendants precede all ancestors except one matching pair at
        # the very end: XR leaps over both non-matching blocks with two
        # probes, while Stack-Tree grinds through them.
        descendants = [entry(2 * i + 1, 2 * i + 2) for i in range(500)]
        descendants.append(entry(99993, 99994))
        ancestors = [entry(10000 + 2 * i, 10000 + 2 * i + 1)
                     for i in range(500)]
        ancestors.append(entry(99991, 99998))
        _, xr = run(xr_stack_join, ancestors, descendants, collect=False)
        _, stk = run(stack_tree_join, ancestors, descendants, collect=False)
        assert xr.pairs == stk.pairs == 1
        assert xr.elements_scanned < stk.elements_scanned / 10

    def test_interleaved_disjoint_lists_cannot_be_skipped(self):
        # Perfectly alternating disjoint elements are the skipping worst
        # case: XR-stack degrades gracefully to a merge, never worse than
        # a small constant over the no-index scan.
        ancestors = [entry(10 * i, 10 * i + 4) for i in range(1, 300)]
        descendants = [entry(10 * i + 6, 10 * i + 7) for i in range(1, 300)]
        _, xr = run(xr_stack_join, ancestors, descendants, collect=False)
        _, stk = run(stack_tree_join, ancestors, descendants, collect=False)
        assert xr.pairs == stk.pairs == 0
        assert xr.elements_scanned <= 2 * stk.elements_scanned + 10


def _overlapping_regions():
    """Six regions, each an outer ancestor over two disjoint inner ones,
    with 31 descendants per region.  At 10 records a 256-byte page, most
    rescans start mid-page and the outer ones cross page boundaries."""
    ancestors, descendants = [], []
    for group in range(6):
        base = group * 1000
        ancestors += [entry(base + 10, base + 900, 1),
                      entry(base + 20, base + 600, 2),
                      entry(base + 620, base + 850, 2)]
        descendants += [entry(base + 25 + 30 * j, base + 29 + 30 * j, 3)
                        for j in range(20)]
        descendants.append(entry(base + 605, base + 610, 2))
        descendants += [entry(base + 625 + 30 * j, base + 629 + 30 * j, 3)
                        for j in range(8)]
        descendants += [entry(base + 865, base + 870, 2),
                        entry(base + 880, base + 885, 2)]
    return ancestors, descendants


class TestMpmgjnIo:
    """MPMGJN's rescans read the descendant pages they always read."""

    @pytest.mark.parametrize("parent_child, pairs", [(False, 354),
                                                     (True, 186)])
    def test_rescans_charge_the_recorded_pages(self, parent_child, pairs):
        ancestors, descendants = _overlapping_regions()
        pool = StorageContext(page_size=256, buffer_pages=4).pool
        a_input = build_element_list(ancestors, pool)
        d_input = build_element_list(descendants, pool)
        pool.flush_all()
        pool.clear()
        pool.reset_stats()
        got, stats = mpmgjn_join(a_input, d_input, parent_child=parent_child)
        assert sort_pairs(got) == nested_loop_join(ancestors, descendants,
                                                   parent_child)
        assert len(got) == pairs
        # Recorded by running mpmgjn_join at commit c0c9e26, whose rescans
        # polled a clone() of the anchor cursor, on this input and pool.
        assert stats.elements_scanned == 548
        assert (pool.stats.requests, pool.stats.misses) == (73, 25)
        assert pool.pinned_count == 0


class TestJoinStats:
    def test_merge(self):
        a = JoinStats(elements_scanned=5, pairs=2)
        b = JoinStats(elements_scanned=3, pairs=1)
        a.merge(b)
        assert (a.elements_scanned, a.pairs) == (8, 3)

    def test_count_protocol(self):
        stats = JoinStats()
        stats.count()
        stats.count(4)
        assert stats.elements_scanned == 5

    def test_contains_predicate(self):
        assert contains(entry(1, 10), entry(2, 5))
        assert not contains(entry(2, 5), entry(1, 10))
        assert not contains(entry(1, 10, doc=1), entry(2, 5, doc=2))
