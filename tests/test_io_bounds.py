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
from collections import Counter

import pytest

import repro.indexes.xrtree.tree as xrtree_module
from repro.core.api import StorageContext, build_xr_tree, oracle_join
from repro.indexes.bptree import Finger
from repro.indexes.xrtree import (
    StabDirectoryPage,
    StabListPage,
    XRInternalPage,
    XRTree,
)
from repro.indexes.xrtree.stablist import collect_stabbed
from repro.joins import JoinStats, xr_stack_join
from repro.workloads import JoinDataset, vary_both_selectivity
from repro.xmldata import GeneratorConfig, XmlGenerator
from repro.xmldata.dtd import DEPARTMENT_DTD
from tests.test_xrtree_property import fresh_tree, nested_towers, stab_chains


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
        finger = Finger()
        tree.find_ancestors(entries[len(entries) // 2].start, finger=finger)
        _leaf, low, high, _memo = finger.path[-1]
        finger = Finger()
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
            finger = Finger()
            shared = _requested(pool, lambda: tree.find_ancestors(
                point, finger=finger))
            shared += _requested(pool, lambda: tree.seek(point,
                                                         finger=finger))
            alone = _requested(pool, lambda: tree.seek(point))
            unshared = _requested(pool, lambda: tree.find_ancestors(point))
            unshared += alone
            # A lone seek is one descent: the cursor starts on its leaf.
            assert len(alone) == tree.height
            assert len(_tree_pages(shared)) == len(alone)
            assert len(_tree_pages(unshared)) == 2 * tree.height
            assert pool.pinned_count == 0

    def test_join_requests_each_stab_page_once(self):
        """During one XR-stack join no stab-list page is requested twice
        while its node stays on the finger: the node's memo holds every
        stab page read through it until the node is fetched again.

        The towers' nested elements join the childless ones in each
        tower's bottom third, so the first probe into a tower finds the
        tower's upper chain in the stab lists.  (A self-join of the towers
        reads no stab page at all: each of its steps starts on CurD's own
        element, and no probe is issued.)"""
        entries = nested_towers(4, 60)
        nested = [a for a in entries if a.end > a.start + 1]
        bottom = [d for d in entries if d.end == d.start + 1 and d.level > 40]
        selfjoin = fresh_tree(4, 4)
        selfjoin.bulk_load(entries)
        stats = JoinStats()
        requested = _requested(selfjoin.pool, lambda: xr_stack_join(
            selfjoin, selfjoin, collect=False, stats=stats))
        assert stats.pairs == sum(
            1 for a in entries for d in entries if a.start < d.start < a.end)
        assert stats.stab_pages == stats.ancestor_skips == 0
        assert not [page for page in requested
                    if isinstance(page, (StabListPage, StabDirectoryPage))]
        atree, dtree = fresh_tree(4, 4), fresh_tree(4, 4)
        atree.bulk_load(nested)
        dtree.bulk_load(bottom)
        chains = stab_chains(atree)
        assert any(directory and len(pages) >= 3
                   for directory, pages in chains.values())
        owner = {page_id: node_id
                 for node_id, (directory, pages) in chains.items()
                 for page_id in pages + [directory] if page_id}
        stats = JoinStats()
        pairs = []
        requested = _requested(atree.pool, lambda: pairs.extend(
            xr_stack_join(atree, dtree, stats=stats)[0]))
        assert len(pairs) == sum(
            1 for a in nested for d in bottom if a.start < d.start < a.end)
        entered = Counter()  # fetches of each node: arrivals on the finger
        visits = []
        for page in requested:
            if isinstance(page, XRInternalPage):
                entered[page.page_id] += 1
            elif isinstance(page, (StabListPage, StabDirectoryPage)):
                visits.append((page.page_id,
                               entered[owner[page.page_id]]))
        assert len(visits) == len(set(visits)) == stats.stab_pages
        # Some walk went through a ps directory and across chain pages.
        read = {page_id for page_id, _entered in visits}
        assert any(directory in read and len(read.intersection(pages)) >= 2
                   for directory, pages in chains.values())
        assert atree.pool.pinned_count == 0

    def test_a_search_that_reads_a_stab_page_finds_an_ancestor(
            self, monkeypatch):
        """On ``join_dense``-shaped data (department documents, 90 % of
        both sides joining, 512-byte pages) every stab-list search that
        requests a page returns an ancestor: no page is read just to meet
        a record that is on the stack already or not stabbed.  And stab
        lists are searched at all on at most one probe in fifty: bounded
        by CurA, almost every probe is answered by its leaf alone."""
        generator = XmlGenerator(DEPARTMENT_DTD, GeneratorConfig(
            mean_repeat=2.2, recursion_decay=0.72, max_depth=28), seed=1)
        document = generator.generate(2600, doc_id=1)
        data = vary_both_selectivity(JoinDataset(
            "employee_name", document.entries_for_tag("employee"),
            document.entries_for_tag("name"), document), 0.9, seed=1)
        context = StorageContext(page_size=512, buffer_pages=32)
        atree = build_xr_tree(data.ancestors, context.pool)
        dtree = build_xr_tree(data.descendants, context.pool)
        searches = []

        def search(pool, node, point, counter=None, after_start=None,
                   pages=None):
            before = counter.stab_pages
            found = collect_stabbed(pool, node, point, counter, after_start,
                                    pages)
            searches.append((counter.stab_pages - before, len(found)))
            return found

        monkeypatch.setattr(xrtree_module, "collect_stabbed", search)
        pairs, stats = xr_stack_join(atree, dtree)
        assert len(pairs) == len(oracle_join(data.ancestors,
                                             data.descendants))
        reading = [found for pages, found in searches if pages]
        assert 0 < len(searches) <= stats.ancestor_skips // 50
        assert all(reading)
        assert sum(pages for pages, _found in searches) == stats.stab_pages


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
