"""Quantitative I/O-bound tests for Theorems 3 and 4.

The paper's headline guarantees are worst-case I/O bounds:

* Theorem 3 — FindDescendants: ``O(log_F N + R/B)`` page I/Os;
* Theorem 4 — FindAncestors:   ``O(log_F N + R)`` page I/Os.

These tests measure actual cold-pool page misses per operation and assert
them against the formulas with explicit constants (height for the log term,
leaf capacity for ``B``), on both bulk-loaded and dynamically built trees,
and the page requests a probe saves by sharing a finger with the last one.
"""

import random

import pytest

from repro.core.api import StorageContext, build_xr_tree
from repro.indexes.xrtree import (
    StabDirectoryPage,
    StabListPage,
    XRInternalPage,
    XRTree,
)


@pytest.fixture(scope="module")
def loaded():
    from repro.workloads import department_dataset

    data = department_dataset(6000, seed=17)
    entries = sorted(data.ancestors + data.descendants,
                     key=lambda e: e.start)
    context = StorageContext(page_size=512, buffer_pages=4096)
    tree = build_xr_tree(entries, context.pool)
    return context, tree, entries


def _cold(context):
    context.pool.flush_all()
    context.pool.clear()
    context.reset_stats()


class TestTheorem4FindAncestors:
    def test_misses_bounded_by_height_plus_output(self, loaded):
        context, tree, entries = loaded
        rng = random.Random(3)
        top = max(e.end for e in entries)
        worst = 0
        for _ in range(150):
            point = rng.randrange(1, top + 2)
            _cold(context)
            results = tree.find_ancestors(point)
            misses = context.pool.stats.misses
            # One page per level of the descent, plus at most ~2 pages per
            # PSL touched (directory + chain page) — and every touched PSL
            # contributes at least one result, so: height + 2R + slack.
            bound = tree.height + 2 * len(results) + 3
            assert misses <= bound, (point, misses, bound, len(results))
            worst = max(worst, misses - len(results))
        # The additive part stays near the descent cost.
        assert worst <= tree.height + 3

    def test_empty_result_costs_one_descent(self, loaded):
        context, tree, entries = loaded
        top = max(e.end for e in entries)
        _cold(context)
        results = tree.find_ancestors(top + 100)
        assert results == []
        assert context.pool.stats.misses <= tree.height + 1


def _requested(pool, call):
    """The pages ``call()`` requests from ``pool``, in order."""
    pages = []
    fetch = pool.fetch

    def spy(page_id):
        page = fetch(page_id)
        pages.append(page)
        return page

    pool.fetch = spy
    try:
        call()
    finally:
        del pool.fetch
    return pages


def _tree_pages(pages):
    """``pages`` without the stab-list pages (the ``R`` term)."""
    return [p for p in pages
            if not isinstance(p, (StabListPage, StabDirectoryPage))]


class TestFinger:
    """Probes sharing a finger pay a descent only where the key leaves the
    last root-to-leaf path."""

    def test_rising_probes_in_one_leaf_request_no_internal_page(self, loaded):
        context, tree, entries = loaded
        assert tree.height >= 3
        pool = context.pool
        finger = []
        tree.find_ancestors(entries[len(entries) // 2].start, finger=finger)
        _leaf, low, high = finger[-1]
        finger = []
        first = _requested(pool, lambda: tree.find_ancestors(low,
                                                             finger=finger))
        assert sum(isinstance(p, XRInternalPage) for p in first) \
            == tree.height - 1
        assert high - low > 10
        for point in range(low, high):
            pages = _requested(pool, lambda: tree.find_ancestors(
                point, finger=finger))
            assert pool.pinned_count == 0
            pages += _requested(pool, lambda: tree.seek(point, finger=finger))
            assert pool.pinned_count == 0
            assert not any(isinstance(p, XRInternalPage) for p in pages)

    def test_find_ancestors_then_seek_costs_one_descent(self, loaded):
        context, tree, entries = loaded
        pool = context.pool
        rng = random.Random(5)
        for _ in range(30):
            point = rng.choice(entries).start + rng.randrange(3)
            finger = []
            shared = _requested(pool, lambda: tree.find_ancestors(
                point, finger=finger))
            shared += _requested(pool, lambda: tree.seek(point,
                                                         finger=finger))
            alone = _requested(pool, lambda: tree.seek(point))
            unshared = _requested(pool, lambda: tree.find_ancestors(point))
            unshared += alone
            # A lone seek is one descent plus the cursor's read of the leaf.
            assert len(alone) == tree.height + 1
            assert len(_tree_pages(shared)) == len(alone)
            assert len(_tree_pages(unshared)) == 2 * tree.height + 1
            assert pool.pinned_count == 0


class TestTheorem3FindDescendants:
    def test_misses_bounded_by_height_plus_pages(self, loaded):
        context, tree, entries = loaded
        rng = random.Random(4)
        for _ in range(100):
            probe = rng.choice(entries)
            _cold(context)
            results = tree.find_descendants(probe.start, probe.end)
            misses = context.pool.stats.misses
            pages_of_output = len(results) // tree.leaf_capacity + 1
            bound = tree.height + pages_of_output + 2
            assert misses <= bound, (probe, misses, bound, len(results))

    def test_range_scan_is_sequential(self, loaded):
        context, tree, entries = loaded
        widest = max(entries, key=lambda e: e.end - e.start)
        _cold(context)
        results = tree.find_descendants(widest.start, widest.end)
        misses = context.pool.stats.misses
        # A large result must cost ~R/B pages, not R pages.
        assert len(results) > tree.leaf_capacity * 3
        assert misses < len(results) / 2


class TestDynamicTreeSameBounds:
    def test_bounds_hold_after_random_construction(self):
        rng = random.Random(9)
        from repro.workloads import department_dataset

        data = department_dataset(2500, seed=19)
        entries = sorted(data.ancestors + data.descendants,
                         key=lambda e: e.start)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        context = StorageContext(page_size=512, buffer_pages=4096)
        tree = XRTree(context.pool)
        for e in shuffled:
            tree.insert(e)
        top = max(e.end for e in entries)
        for _ in range(80):
            point = rng.randrange(1, top + 2)
            _cold(context)
            results = tree.find_ancestors(point)
            assert context.pool.stats.misses <= \
                tree.height + 2 * len(results) + 3
