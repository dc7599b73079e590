"""Structural tests for the XR-tree (Definition 4), including the paper's
Figure 1 running example."""

import pytest

from repro.indexes.xrtree import XRTree, XRTreeError, check_xrtree
from repro.indexes.xrtree.checker import XRTreeInvariantError
from repro.indexes.xrtree.pages import NIL, XRInternalPage, XRLeafPage
from repro.indexes.xrtree.stablist import StabList
from tests.conftest import entry

#: The emp element set of the paper's Figure 1.
FIGURE_1_EMPS = [
    (2, 15), (8, 12), (10, 11), (20, 75), (22, 35), (25, 30),
    (40, 65), (45, 60), (46, 47), (50, 55), (80, 91), (85, 90),
]


def figure1_entries():
    return [entry(s, e) for s, e in FIGURE_1_EMPS]


def small_tree(pool, leaf=4, internal=3, bulk=True, optimize=True):
    tree = XRTree(pool, leaf_capacity=leaf, internal_capacity=internal,
                  optimize_split_keys=optimize)
    if bulk:
        tree.bulk_load(figure1_entries())
    else:
        for e in figure1_entries():
            tree.insert(e)
    return tree


class TestFigure1:
    def test_bulk_load_is_valid(self, pool):
        tree = small_tree(pool)
        assert check_xrtree(tree)
        assert tree.size == 12
        assert tree.height >= 2

    def test_dynamic_build_is_valid(self, pool):
        tree = small_tree(pool, bulk=False)
        assert check_xrtree(tree)
        assert tree.size == 12

    def test_items_in_start_order(self, pool):
        tree = small_tree(pool)
        assert [e.start for e in tree.items()] == \
            sorted(s for s, _ in FIGURE_1_EMPS)

    def test_nested_region_20_75_is_stabbed(self, pool):
        # With 12 elements over 4-entry leaves there are internal keys
        # between 20 and 75, so (20, 75) must carry the InStabList flag.
        tree = small_tree(pool)
        found = tree.search(20)
        assert found.in_stab_list

    def test_find_ancestors_of_50(self, pool):
        # Element (50, 55): its emp ancestors in Figure 1 are (20, 75),
        # (40, 65) and (45, 60).
        tree = small_tree(pool)
        ancestors = tree.find_ancestors(50)
        assert [(a.start, a.end) for a in ancestors] == \
            [(20, 75), (40, 65), (45, 60)]

    def test_find_descendants_of_40_65(self, pool):
        tree = small_tree(pool)
        descendants = tree.find_descendants(40, 65)
        assert [(d.start, d.end) for d in descendants] == \
            [(45, 60), (46, 47), (50, 55)]

    def test_same_answers_regardless_of_build_path(self, pool, big_pool):
        bulk = small_tree(pool)
        dynamic = small_tree(big_pool, bulk=False)
        for point in range(1, 95):
            assert [a.start for a in bulk.find_ancestors(point)] == \
                [a.start for a in dynamic.find_ancestors(point)]


class TestSplitKeyChoice:
    def test_gap_uses_predecessor_of_right_start(self, pool):
        # Paper, Section 3.2: prefer 79 over 80 so (80, 91) is not stabbed.
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=4)
        assert tree._choose_separator(71, 80) == 79

    def test_adjacent_start_forces_right_start(self, pool):
        # Paper: "We have to use key 46 ... since 45 is the start position
        # of another region."
        tree = XRTree(pool, leaf_capacity=4, internal_capacity=4)
        assert tree._choose_separator(45, 46) == 46

    def test_optimization_can_be_disabled(self, pool):
        tree = XRTree(pool, optimize_split_keys=False)
        assert tree._choose_separator(71, 80) == 80

    def test_unoptimized_tree_still_valid(self, pool):
        tree = small_tree(pool, bulk=False, optimize=False)
        assert check_xrtree(tree)

    def test_optimization_never_increases_stabbed_count(self, pool, big_pool):
        def stabbed_count(tree):
            return sum(1 for e in tree.items() if e.in_stab_list)

        optimized = small_tree(pool, bulk=False, optimize=True)
        plain = small_tree(big_pool, bulk=False, optimize=False)
        assert stabbed_count(optimized) <= stabbed_count(plain)


class TestDefinitionInvariants:
    def test_stab_flags_match_stab_lists(self, pool):
        tree = small_tree(pool)
        flagged = {e.start for e in tree.items() if e.in_stab_list}
        in_lists = set()
        for node_id in _internal_ids(tree):
            with pool.pinned(node_id) as node:
                in_lists.update(
                    r.start for r in StabList(pool, node).iter_all()
                )
        assert flagged == in_lists

    def test_pspe_points_at_psl_heads(self, pool):
        tree = small_tree(pool)
        for node_id in _internal_ids(tree):
            with pool.pinned(node_id) as node:
                stab = StabList(pool, node)
                for j, key in enumerate(node.keys):
                    head = next(iter(stab.iter_psl(j)), None)
                    if head is None:
                        assert node.ps[j] == NIL and node.pe[j] == NIL
                    else:
                        assert (node.ps[j], node.pe[j]) == \
                            (head.start, head.end)

    def test_checker_catches_corrupt_flag(self, pool):
        tree = small_tree(pool)
        cursor = tree.first()
        leaf = pool.fetch(cursor.page_id)
        # Flip a flag without touching any stab list.
        leaf.records[0] = leaf.records[0].with_flag(
            not leaf.records[0].in_stab_list
        )
        pool.unpin(leaf, dirty=True)
        with pytest.raises(XRTreeInvariantError):
            check_xrtree(tree)

    def test_checker_catches_bad_pspe(self, pool):
        tree = small_tree(pool)
        node_ids = _internal_ids(tree)
        for node_id in node_ids:
            with pool.pinned(node_id) as node:
                if node.sl_count:
                    node.ps[0] = 99999
                    node.pe[0] = 999999
                    node.mark_dirty()
                    break
        else:
            pytest.skip("no stabbed nodes in this build")
        with pytest.raises(XRTreeInvariantError):
            check_xrtree(tree)

    def test_duplicate_key_rejected(self, pool):
        tree = small_tree(pool)
        with pytest.raises(XRTreeError):
            tree.insert(entry(20, 99))

    def test_bulk_load_requires_sorted_unique(self, pool):
        tree = XRTree(pool)
        with pytest.raises(XRTreeError):
            tree.bulk_load([entry(5, 10), entry(3, 4)])

    def test_bulk_load_twice_rejected(self, pool):
        tree = small_tree(pool)
        with pytest.raises(XRTreeError):
            tree.bulk_load([entry(200, 300)])

    def test_empty_tree_valid(self, pool):
        assert check_xrtree(XRTree(pool))


class TestCapacities:
    def test_capacity_from_page_size(self):
        assert XRLeafPage.capacity(4096) > 100
        assert XRInternalPage.capacity(4096) > 100
        # An XR internal key entry (key, ps, pe, child) is bigger than a
        # B+-tree key entry (key, child): fewer keys fit per page, the
        # overhead the paper mentions in Section 6.3.
        from repro.indexes.bptree import BPlusInternalPage

        assert XRInternalPage.capacity(4096) < BPlusInternalPage.capacity(4096)

    def test_tiny_capacity_rejected(self, pool):
        with pytest.raises(XRTreeError):
            XRTree(pool, leaf_capacity=1)


class TestPageCodecs:
    def test_internal_page_roundtrip(self, pool):
        from repro.storage.pages import Page

        node = XRInternalPage(
            keys=[10, 20], children=[3, 4, 5],
            ps=[2, NIL], pe=[25, NIL], sl_head=9, sl_dir=8, sl_count=4,
        )
        decoded = Page.decode(node.encode(512), 512)
        assert decoded.keys == [10, 20]
        assert decoded.children == [3, 4, 5]
        assert decoded.ps == [2, NIL]
        assert decoded.pe == [25, NIL]
        assert (decoded.sl_head, decoded.sl_dir, decoded.sl_count) == (9, 8, 4)

    def test_leaf_page_roundtrip(self, pool):
        from repro.storage.pages import Page

        page = XRLeafPage([entry(1, 9, flag=True), entry(3, 4)], next_id=6)
        decoded = Page.decode(page.encode(512), 512)
        assert decoded.records[0].in_stab_list
        assert decoded.next_id == 6

    def test_key_helpers(self):
        node = XRInternalPage(keys=[10, 20, 30], children=[1, 2, 3, 4])
        assert node.child_index_for(5) == 0
        assert node.child_index_for(10) == 1
        assert node.child_index_for(25) == 2
        assert node.child_index_for(99) == 3
        assert node.primary_key_index(15) == 1
        assert node.primary_key_index(31) is None
        assert node.stabs(15, 25)       # key 20 in [15, 25]
        assert not node.stabs(11, 19)   # no key inside
        assert node.psl_bounds(1) == (10, 20)


def _internal_ids(tree):
    ids = []
    frontier = [tree.root_id]
    while frontier:
        page_id = frontier.pop()
        with tree.pool.pinned(page_id) as page:
            if isinstance(page, XRInternalPage):
                ids.append(page_id)
                frontier.extend(page.children)
    return ids
