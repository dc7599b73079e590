"""Tests for the public facade (repro.core.api)."""

import pytest

from repro.core.api import (
    ALGORITHMS,
    StorageContext,
    XRTreeIndex,
    oracle_join,
    structural_join,
)
from repro.joins.base import sort_pairs
from tests.conftest import entry


class TestStorageContext:
    def test_defaults(self):
        context = StorageContext()
        assert context.pool.capacity == 100      # the paper's buffer size
        assert context.disk.page_size == 4096

    def test_reset_stats(self):
        context = StorageContext()
        page = context.pool.new_page(
            __import__("repro.storage.pages", fromlist=["RawPage"]).RawPage(b"x")
        )
        context.pool.unpin(page, dirty=True)
        context.pool.flush_all()
        context.reset_stats()
        assert context.page_misses == 0
        assert context.disk.stats.writes == 0

    def test_derived_seconds_uses_time_model(self):
        from repro.storage.timemodel import DiskTimeModel

        context = StorageContext(time_model=DiskTimeModel(read_ms=10.0,
                                                          write_ms=0.0,
                                                          cpu_us_per_element=0))
        context.pool.stats.misses = 100
        assert context.derived_seconds() == pytest.approx(1.0)

    def test_file_backed_context(self, tmp_path):
        context = StorageContext(page_size=512,
                                 path=str(tmp_path / "ctx.pages"))
        index = XRTreeIndex.build([entry(1, 10), entry(2, 5)], context)
        assert len(index) == 2
        context.pool.flush_all()
        context.close()


class TestXRTreeIndex:
    @pytest.fixture
    def index(self, dept_data):
        return XRTreeIndex.build(dept_data.ancestors)

    def test_build_and_len(self, index, dept_data):
        assert len(index) == dept_data.ancestor_count

    def test_ancestors_of(self, index, dept_data):
        probe = dept_data.descendants[len(dept_data.descendants) // 2]
        got = [a.start for a in index.ancestors_of(probe)]
        expected = [a.start for a in dept_data.ancestors
                    if a.contains(probe)]
        assert got == expected

    def test_descendants_of(self, index, dept_data):
        probe = dept_data.ancestors[0]
        got = [d.start for d in index.descendants_of(probe)]
        expected = [d.start for d in dept_data.ancestors
                    if probe.contains(d)]
        assert got == expected

    def test_parent_of(self, index, dept_data):
        nested = [a for a in dept_data.ancestors if a.level > 2]
        if not nested:
            pytest.skip("no nested employees at this seed")
        probe = nested[0]
        parent = index.parent_of(probe)
        expected = [a for a in dept_data.ancestors
                    if a.contains(probe) and a.level == probe.level - 1]
        assert parent == (expected[0] if expected else None)

    def test_children_of(self, index, dept_data):
        probe = dept_data.ancestors[0]
        got = [c.start for c in index.children_of(probe)]
        expected = [c.start for c in dept_data.ancestors
                    if probe.is_parent_of(c)]
        assert got == expected

    def test_insert_delete_roundtrip(self):
        index = XRTreeIndex()
        index.insert(entry(1, 10))
        index.insert(entry(2, 5))
        assert len(index) == 2
        assert index.delete(2).start == 2
        assert len(index) == 1
        assert index.check()

    def test_items(self, index, dept_data):
        assert [e.start for e in index.items()] == \
            [e.start for e in dept_data.ancestors]

    def test_check(self, index):
        assert index.check()


class TestStructuralJoin:
    def test_all_algorithms_agree(self, dept_data):
        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        for algorithm in ALGORITHMS:
            outcome = structural_join(dept_data.ancestors,
                                      dept_data.descendants,
                                      algorithm=algorithm)
            assert sort_pairs(outcome.pairs) == expected
            assert outcome.pair_count == len(expected)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            structural_join([], [], algorithm="quantum")

    def test_outcome_carries_measurements(self, dept_data):
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="xr-stack")
        assert outcome.page_misses > 0
        assert outcome.stats.elements_scanned > 0
        assert outcome.wall_seconds > 0
        assert outcome.derived_seconds > 0
        assert outcome.algorithm == "xr-stack"

    def test_collect_false_returns_no_pairs(self, dept_data):
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="b+", collect=False)
        assert outcome.pairs is None
        assert outcome.pair_count > 0

    def test_parent_child(self, dept_data):
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="xr-stack", parent_child=True)
        expected = oracle_join(dept_data.ancestors, dept_data.descendants,
                               parent_child=True)
        assert sort_pairs(outcome.pairs) == expected

    def test_join_runs_cold(self, dept_data):
        # The measured join starts on a cold buffer pool: its misses are at
        # least the pages of both input lists.
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="stack-tree", collect=False)
        assert outcome.page_misses >= 2

    def test_explicit_context_reused(self, dept_data):
        context = StorageContext(page_size=1024, buffer_pages=50)
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="xr-stack", context=context,
                                  collect=False)
        assert outcome.pair_count > 0
        assert context.disk.allocated_page_count > 0


class TestPrebuiltInputs:
    def test_xrtree_index_inputs_skip_rebuild(self, dept_data):
        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        context = StorageContext()
        a_index = XRTreeIndex.build(dept_data.ancestors, context)
        d_index = XRTreeIndex.build(dept_data.descendants, context)
        pages_before = context.disk.allocated_page_count
        outcome = structural_join(a_index, d_index, algorithm="xr-stack")
        assert sort_pairs(outcome.pairs) == expected
        # No new pages were allocated: the prebuilt trees were joined as-is.
        assert context.disk.allocated_page_count == pages_before

    def test_raw_tree_inputs(self, dept_data):
        from repro.core.api import build_xr_tree

        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        context = StorageContext()
        a_tree = build_xr_tree(dept_data.ancestors, context.pool)
        d_tree = build_xr_tree(dept_data.descendants, context.pool)
        outcome = structural_join(a_tree, d_tree, algorithm="xr-stack")
        assert sort_pairs(outcome.pairs) == expected

    def test_bplus_and_list_inputs(self, dept_data):
        from repro.core.api import build_bplus_tree, build_element_list

        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        context = StorageContext()
        a_bp = build_bplus_tree(dept_data.ancestors, context.pool)
        d_bp = build_bplus_tree(dept_data.descendants, context.pool)
        outcome = structural_join(a_bp, d_bp, algorithm="b+",
                                  context=context)
        assert sort_pairs(outcome.pairs) == expected

        a_list = build_element_list(dept_data.ancestors, context.pool)
        d_list = build_element_list(dept_data.descendants, context.pool)
        outcome = structural_join(a_list, d_list, algorithm="stack-tree",
                                  context=context)
        assert sort_pairs(outcome.pairs) == expected

    def test_mixed_prebuilt_and_entries(self, dept_data):
        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        context = StorageContext()
        a_index = XRTreeIndex.build(dept_data.ancestors, context)
        outcome = structural_join(a_index, dept_data.descendants,
                                  algorithm="xr-stack", context=context)
        assert sort_pairs(outcome.pairs) == expected

    def test_prebuilt_kind_mismatch_rejected(self, dept_data):
        context = StorageContext()
        a_index = XRTreeIndex.build(dept_data.ancestors, context)
        with pytest.raises(ValueError):
            structural_join(a_index, dept_data.descendants, algorithm="b+",
                            context=context)

    def test_kind_mismatch_builds_nothing(self, dept_data):
        from repro.core.api import build_xr_tree

        context = StorageContext()
        d_tree = build_xr_tree(dept_data.descendants, context.pool)
        pages_before = context.disk.allocated_page_count
        with pytest.raises(ValueError, match="needs a BPlusTree"):
            structural_join(dept_data.ancestors, d_tree, algorithm="b+")
        assert context.disk.allocated_page_count == pages_before

    def test_entries_are_built_beside_the_prebuilt_side(self, dept_data):
        from repro.core.api import build_xr_tree

        expected = oracle_join(dept_data.ancestors, dept_data.descendants)
        context = StorageContext()
        d_tree = build_xr_tree(dept_data.descendants, context.pool)
        pages_before = context.disk.allocated_page_count
        outcome = structural_join(dept_data.ancestors, d_tree,
                                  algorithm="xr-stack")
        assert sort_pairs(outcome.pairs) == expected
        # No context was given: the ancestor tree went into d_tree's pool.
        assert context.disk.allocated_page_count > pages_before

    def test_prebuilt_sides_in_two_pools_rejected(self, dept_data):
        from repro.core.api import build_xr_tree

        a_tree = build_xr_tree(dept_data.ancestors, StorageContext().pool)
        d_tree = build_xr_tree(dept_data.descendants, StorageContext().pool)
        with pytest.raises(ValueError, match="buffer pool"):
            structural_join(a_tree, d_tree, algorithm="xr-stack")

    def test_prebuilt_foreign_pool_rejected(self, dept_data):
        a_index = XRTreeIndex.build(dept_data.ancestors)
        with pytest.raises(ValueError):
            structural_join(a_index, dept_data.descendants,
                            algorithm="xr-stack",
                            context=StorageContext())


class TestAlgorithmRegistry:
    def test_builtins_registered(self):
        from repro.joins.registry import algorithm_names, get_algorithm

        assert set(ALGORITHMS) <= set(algorithm_names())
        assert get_algorithm("xr-stack").input_kind == "xr-tree"
        assert get_algorithm("b+").input_kind == "b+tree"
        assert get_algorithm("stack-tree").input_kind == "element-list"

    def test_plugin_algorithm_dispatches(self, dept_data, monkeypatch):
        from repro.joins import registry
        from repro.joins.stack_tree import stack_tree_join

        # A copy of the table takes the registration; teardown restores
        # the original.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        registry.register_algorithm("test-plugin", stack_tree_join,
                                    registry.INPUT_ELEMENT_LIST,
                                    "registry test double")
        outcome = structural_join(dept_data.ancestors,
                                  dept_data.descendants,
                                  algorithm="test-plugin")
        expected = oracle_join(dept_data.ancestors,
                               dept_data.descendants)
        assert sort_pairs(outcome.pairs) == expected
        assert outcome.algorithm == "test-plugin"

    def test_duplicate_registration_rejected(self):
        from repro.joins.registry import register_algorithm
        from repro.joins.stack_tree import stack_tree_join

        with pytest.raises(ValueError):
            register_algorithm("xr-stack", stack_tree_join, "element-list")

    def test_bad_input_kind_rejected(self):
        from repro.joins.registry import register_algorithm

        with pytest.raises(ValueError):
            register_algorithm("bogus", lambda *a, **k: None, "hash-table")
