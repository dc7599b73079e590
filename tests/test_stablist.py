"""Unit tests for the stab-list manager (repro.indexes.xrtree.stablist)."""

import pytest

from repro.indexes.xrtree.pages import NIL, StabListPage, XRInternalPage
from repro.indexes.xrtree.stablist import (
    StabList,
    StabListError,
    collect_stabbed,
)
from tests.conftest import entry


def make_node(pool, keys):
    """A bare internal node pinned into the pool (children are dummies)."""
    node = pool.new_page(
        XRInternalPage(list(keys), [0] * (len(keys) + 1))
    )
    return node


def stab(pool, keys):
    node = make_node(pool, keys)
    return StabList(pool, node), node


class TestInsertDelete:
    def test_insert_keeps_start_order(self, pool):
        lst, node = stab(pool, [10, 30, 50])
        for s, e in [(25, 35), (5, 55), (28, 34), (48, 51)]:
            lst.insert(entry(s, e, flag=True))
        assert [r.start for r in lst.iter_all()] == [5, 25, 28, 48]
        assert len(lst) == 4

    def test_insert_updates_pspe(self, pool):
        lst, node = stab(pool, [10, 30])
        lst.insert(entry(8, 12, flag=True))   # PSL of key 10
        assert (node.ps[0], node.pe[0]) == (8, 12)
        lst.insert(entry(5, 40, flag=True))   # new head of PSL 10
        assert (node.ps[0], node.pe[0]) == (5, 40)
        lst.insert(entry(25, 33, flag=True))  # PSL of key 30
        assert (node.ps[1], node.pe[1]) == (25, 33)

    def test_insert_not_stabbed_raises(self, pool):
        lst, _ = stab(pool, [10])
        with pytest.raises(StabListError):
            lst.insert(entry(11, 12, flag=True))  # starts after the only key

    def test_insert_duplicate_start_raises(self, pool):
        lst, _ = stab(pool, [10])
        lst.insert(entry(5, 15, flag=True))
        with pytest.raises(StabListError):
            lst.insert(entry(5, 20, flag=True))

    def test_delete_returns_record(self, pool):
        lst, _ = stab(pool, [10])
        lst.insert(entry(5, 15, flag=True))
        removed = lst.delete(5)
        assert removed.start == 5
        assert len(lst) == 0
        assert lst.to_list() == []

    def test_delete_missing_returns_none(self, pool):
        lst, _ = stab(pool, [10])
        assert lst.delete(99) is None

    def test_delete_head_moves_pspe_to_successor(self, pool):
        lst, node = stab(pool, [10])
        lst.insert(entry(3, 30, flag=True))
        lst.insert(entry(6, 20, flag=True))
        lst.delete(3)
        assert (node.ps[0], node.pe[0]) == (6, 20)
        lst.delete(6)
        assert (node.ps[0], node.pe[0]) == (NIL, NIL)

    def test_delete_non_head_keeps_pspe(self, pool):
        lst, node = stab(pool, [10])
        lst.insert(entry(3, 30, flag=True))
        lst.insert(entry(6, 20, flag=True))
        lst.delete(6)
        assert (node.ps[0], node.pe[0]) == (3, 30)


class TestMultiPageChains:
    def entries_for_chain(self, pool, count, key=100000):
        # A fully nested family (starts increase, ends decrease) — the only
        # way many regions can all be stabbed by one key in valid XML.
        return [entry(i + 1, 2 * key - i, flag=True) for i in range(count)]

    def test_chain_grows_and_gets_directory(self, pool):
        capacity = StabListPage.capacity(pool.page_size)
        lst, node = stab(pool, [100000])
        for e in self.entries_for_chain(pool, capacity + 2):
            lst.insert(e)
        assert lst.page_count() >= 2
        assert node.sl_dir != 0
        assert [r.start for r in lst.iter_all()] == \
            list(range(1, capacity + 3))

    def test_single_page_has_no_directory(self, pool):
        lst, node = stab(pool, [100000])
        for e in self.entries_for_chain(pool, 3):
            lst.insert(e)
        assert node.sl_dir == 0

    def test_deleting_back_to_one_page_drops_directory(self, pool, disk):
        capacity = StabListPage.capacity(pool.page_size)
        lst, node = stab(pool, [100000])
        entries = self.entries_for_chain(pool, capacity + 2)
        for e in entries:
            lst.insert(e)
        assert node.sl_dir != 0
        for e in entries[1:]:
            lst.delete(e.start)
        assert node.sl_dir == 0
        assert lst.page_count() == 1

    def test_free_all_releases_pages(self, pool, disk):
        capacity = StabListPage.capacity(pool.page_size)
        lst, node = stab(pool, [100000])
        before = disk.allocated_page_count
        for e in self.entries_for_chain(pool, capacity * 3):
            lst.insert(e)
        assert disk.allocated_page_count > before
        lst.free_all()
        pool.flush_all()
        assert disk.allocated_page_count == before
        assert (node.sl_head, node.sl_dir, node.sl_count) == (0, 0, 0)


class TestPslIteration:
    #: A strictly nested layout over keys [10, 30, 50]:
    #: PSL_0 = {(2, 60), (4, 12)}, PSL_1 = {(15, 31), (28, 30)},
    #: PSL_2 = {(45, 51)}.
    LAYOUT = [(2, 60), (4, 12), (15, 31), (28, 30), (45, 51)]

    def test_iter_psl_respects_bounds(self, pool):
        lst, node = stab(pool, [10, 30, 50])
        for s, e in self.LAYOUT:
            lst.insert(entry(s, e, flag=True))
        assert [r.start for r in lst.iter_psl(0)] == [2, 4]
        assert [r.start for r in lst.iter_psl(1)] == [15, 28]
        assert [r.start for r in lst.iter_psl(2)] == [45]

    def test_collect_stabbed_basic(self, pool):
        lst, node = stab(pool, [10, 30, 50])
        for s, e in self.LAYOUT:
            lst.insert(entry(s, e, flag=True))
        got = [r.start for r in collect_stabbed(pool, node, 29)]
        assert got == [2, 15, 28]

    def test_collect_stabbed_uses_pspe_guards(self, pool):
        lst, node = stab(pool, [10, 30])
        lst.insert(entry(5, 12, flag=True))
        # Point 20 stabs nothing; the (ps, pe) guard must answer without
        # touching the chain.
        assert collect_stabbed(pool, node, 20) == []

    def test_collect_stabbed_after_start(self, pool):
        lst, node = stab(pool, [10])
        for s, e in [(2, 50), (4, 40), (6, 30)]:
            lst.insert(entry(s, e, flag=True))
        assert [r.start for r in collect_stabbed(pool, node, 20)] == [2, 4, 6]
        assert [r.start for r in collect_stabbed(pool, node, 20,
                                                 after_start=4)] == [6]

    def test_collect_stabbed_counts(self, pool):
        from repro.joins.base import JoinStats

        lst, node = stab(pool, [10])
        for s, e in [(2, 50), (4, 40), (6, 30)]:
            lst.insert(entry(s, e, flag=True))
        stats = JoinStats()
        collect_stabbed(pool, node, 20, counter=stats)
        assert stats.elements_scanned == 3


class TestStructuralOps:
    def test_extract_stabbed(self, pool):
        lst, node = stab(pool, [10, 30, 50])
        for s, e in [(2, 60), (4, 12), (15, 31), (28, 30), (45, 51)]:
            lst.insert(entry(s, e, flag=True))
        removed = lst.extract_stabbed(30)
        assert sorted(r.start for r in removed) == [2, 15, 28]
        assert [r.start for r in lst.iter_all()] == [4, 45]
        assert len(lst) == 2

    def test_extract_stabbed_empty_result(self, pool):
        lst, node = stab(pool, [10, 30])
        lst.insert(entry(5, 12, flag=True))
        assert lst.extract_stabbed(20) == []
        assert len(lst) == 1

    def test_split_after(self, pool):
        lst, node = stab(pool, [10, 30, 50])
        for s, e in [(4, 11), (15, 31), (45, 51)]:
            lst.insert(entry(s, e, flag=True))
        head, directory, count = lst.split_after(30)
        assert count == 1
        assert [r.start for r in lst.iter_all()] == [4, 15]
        other = pool.new_page(
            XRInternalPage([50], [0, 0], sl_head=head, sl_dir=directory,
                           sl_count=count)
        )
        assert [r.start for r in StabList(pool, other).iter_all()] == [45]

    def test_split_after_multi_page(self, pool):
        capacity = StabListPage.capacity(pool.page_size)
        big_key = 10 ** 6
        lst, node = stab(pool, [big_key])
        n = capacity * 3
        for i in range(n):
            lst.insert(entry(i + 1, 2 * big_key - i, flag=True))
        cut = capacity + capacity // 2
        head, directory, count = lst.split_after(cut)
        assert count == n - cut
        assert [r.start for r in lst.iter_all()] == list(range(1, cut + 1))
        other = pool.new_page(
            XRInternalPage([big_key], [0, 0], sl_head=head,
                           sl_dir=directory, sl_count=count)
        )
        assert [r.start for r in StabList(pool, other).iter_all()] == \
            list(range(cut + 1, n + 1))

    def test_merge_from(self, pool):
        left_lst, left = stab(pool, [10])
        right_lst, right = stab(pool, [30])
        left_lst.insert(entry(4, 11, flag=True))
        right_lst.insert(entry(25, 31, flag=True))
        # Simulate the node merge: the left node absorbs the right keys
        # first so its stab membership covers the union.
        left.keys.append(30)
        left.ps.append(NIL)
        left.pe.append(NIL)
        left.children.append(0)
        left_lst.merge_from(right)
        assert [r.start for r in left_lst.iter_all()] == [4, 25]
        assert (right.sl_head, right.sl_dir, right.sl_count) == (0, 0, 0)
        left_lst.refresh_pspe()
        assert (left.ps[1], left.pe[1]) == (25, 31)

    def test_refresh_pspe_full_scan(self, pool):
        lst, node = stab(pool, [10, 30])
        for s, e in [(4, 11), (15, 31)]:
            lst.insert(entry(s, e, flag=True))
        node.ps = [NIL, NIL]
        node.pe = [NIL, NIL]
        lst.refresh_pspe()
        assert (node.ps[0], node.pe[0]) == (4, 11)
        assert (node.ps[1], node.pe[1]) == (15, 31)

    def test_refresh_pspe_detects_foreign_record(self, pool):
        lst, node = stab(pool, [10])
        lst.insert(entry(4, 11, flag=True))
        node.keys = [3]  # now (4, 11) is not stabbed by any key
        with pytest.raises(StabListError):
            lst.refresh_pspe()


class TestKeyRemovalLocality:
    def test_internal_key_removal_reads_only_that_keys_psl(self, pool):
        """Step D31 as the paper writes it: dropping one key of a node
        re-examines that key's PSL, not the node's whole stab list."""
        from repro.indexes.xrtree import XRTree, check_xrtree

        tree = XRTree(pool, leaf_capacity=8)
        # One long nesting chain: every element reaches past every
        # separator, so all of them sit in the root's stab list, a leaf's
        # worth per PSL, over a chain of many pages.
        tree.bulk_load([entry(start, 1000 - start)
                        for start in range(1, 229)])
        assert tree.height == 2
        root = pool.fetch(tree.root_id)
        chain = StabList(pool, root)
        chain_pages = chain.page_count()
        assert chain_pages >= 8 and root.sl_dir
        # Consecutive starts leave no gap, so each separator is the first
        # start of the leaf to its right.
        middle = len(root.keys) // 2
        low, high = root.keys[middle - 1], root.keys[middle] - 1
        pool.unpin(root)

        stab_pages_read = set()
        fetch = pool.fetch

        def recording_fetch(page_id):
            page = fetch(page_id)
            if isinstance(page, StabListPage):
                stab_pages_read.add(page_id)
            return page

        pool.fetch = recording_fetch
        try:
            # Empty exactly the leaf left of the middle key: it merges away
            # and a key goes with it.
            removed = tree.delete(low, high)
        finally:
            del pool.fetch
        assert len(removed) == 8 and tree.maintenance_stats["leaf_merges"] == 1
        assert len(stab_pages_read) <= 2 < chain_pages, stab_pages_read
        check_xrtree(tree)
