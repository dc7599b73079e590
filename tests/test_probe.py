"""XR-stack's probe is ``find_ancestors`` through a finger, read on from
the slot the call leaves on the finger.

XR-stack's ancestor step (Algorithm 6 lines 9-13) calls an XR-tree
ancestor input's ``find_ancestors(p, stats, after, finger=f)`` once, then
reads on from ``f.path[-1][0].records[f.slot:]`` and each later leaf once.
For random region sets indexed as XR-trees (bulk loaded or built by
inserts in random order, leaf and internal capacities 4-8), that read
must be ``list(seek(p))``, and the call plus the read must charge the same
``elements_scanned`` and ``stab_pages`` as ``find_ancestors`` plus
``seek(p, finger)`` on a twin tree in the same pool state, request and
miss the same pages, and leave no frame pinned — with a finger kept
across probes and with a new one per probe.

A second sweep holds FindAncestors' leaf-local answer — taken when the
leaf covering the point also covers ``after_start`` — to brute force.  On
the same kinds of trees it draws ``after_start`` as None, one below a
start in the point's own leaf, a start in an earlier leaf, or a value at
or beside a separator key, not only below an ancestor of the point: the
answer (also with ``required_level``) must be the entries starting in
``(after_start, point)`` that end past ``point``, charged one unit each,
with no frame left pinned, and a leaf-local call through a finger already
on its leaf must request no page.

A boundary sweep joins XR-trees of leaf capacity 2-4 in a small shared
pool, where many probes stop past their leaf's last record and the read
crosses into the next leaf: the pairs must be the nested-loop oracle's,
and the charges and every page request, in order, those of the same join
resuming each probe through a
:class:`~repro.storage.pagedlist.RecordCursor` at ``(leaf, slot)`` on a
twin pool, with no frame pinned after any join.

Another check keeps the perf tracer's exact counter honest: an XR-stack
join over two XR-trees makes one call to ``XRTree.find_ancestors``, as
looked up on the class, per ancestor skip.

A last sweep joins a tag with itself on random documents of the
recursive DTDs (``employee`` in the Department DTD, ``parlist`` and
``listitem`` in the auction one), on the descendant and the child axis,
with an XR-tree or a memory list on the ancestor side: the pairs must be
the nested-loop oracle's, and XR-stack must issue no probe into the tree —
each of its ancestor steps starts on CurD's own element, where
FindAncestors has nothing to find — and must charge one unit per element,
over the tree as over the merged list.

The sweeps are seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random
from operator import attrgetter

from repro.indexes.bptree import Finger
from repro.indexes.xrtree import XRTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.pagedlist import RecordCursor, read_page
from repro.joins import (
    JoinStats,
    MemoryElementList,
    nested_loop_join,
    xr_stack_join,
)
from repro.joins.base import sort_pairs
from repro.xmldata import GeneratorConfig, XmlGenerator
from repro.xmldata.dtd import AUCTION_DTD, DEPARTMENT_DTD
from tests.test_finger_stab_memo import indexed, sides
from tests.test_joins_property import counting_probes
from tests.test_xrtree_property import fresh_tree
from tests.test_xrtree_run_delete import region_set

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
ROUNDS = 8
PROBES = 40


def built(entries, leaf, internal, order):
    """An XR-tree in a pool of its own: bulk loaded, or built by
    inserting ``order`` one by one."""
    tree = fresh_tree(leaf, internal)
    if order is None:
        tree.bulk_load(entries)
    else:
        for entry in order:
            tree.insert(entry)
    return tree


def twins(entries, leaf, internal, order):
    """The same XR-tree built twice, both in the same state."""
    return [built(entries, leaf, internal, order) for _ in range(2)]


def charges(stats):
    return stats.elements_scanned, stats.stab_pages


def io(tree):
    return tree.pool.stats.requests, tree.pool.stats.misses


def probe_points(rng, entries):
    """``(point, after_start)`` pairs: points on starts, inside regions and
    past either end; ``after_start`` None or below the point, as XR-stack's
    ``CurA.start - 1`` is."""
    hi = max(e.end for e in entries) + 2
    for _ in range(PROBES):
        if rng.random() < 0.5:
            point = rng.choice(entries).start
        else:
            point = rng.randrange(-2, hi)
        after = None if rng.random() < 0.4 else rng.randrange(-3, point)
        yield point, after


def read_on(pool, finger):
    """What XR-stack reads after a probe through ``finger``: the finger's
    leaf from its slot on, then each later leaf once."""
    leaf = finger.path[-1][0]
    entries, page_id = leaf.records[finger.slot:], leaf.next_id
    while page_id:
        records, page_id = read_page(pool, page_id)
        entries += records
    return entries


def test_find_ancestors_leaves_the_finger_at_the_seek():
    rng = random.Random(SEED)
    stab_pages = 0
    for number in range(ROUNDS):
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        order = region_set(rng)
        entries = sorted(order, key=attrgetter("start"))
        bulk = number % 2 == 0
        context = "CHAOS_SEED=%d round %d (leaf %d, internal %d, %s)" % (
            SEED, number, leaf, internal, "bulk" if bulk else "inserts")
        probed, paired = twins(entries, leaf, internal,
                               None if bulk else order)
        kept = (Finger(), Finger())
        for point, after in probe_points(rng, entries):
            expected_seek = [e for e in entries if e.start >= point]
            for kind in ("kept", "new"):
                here = (context, kind, point, after)
                p_finger, q_finger = kept if kind == "kept" \
                    else (Finger(), Finger())
                p_stats, q_stats = JoinStats(), JoinStats()
                ancestors = probed.find_ancestors(point, p_stats, after,
                                                  finger=p_finger)
                got = (ancestors, read_on(probed.pool, p_finger))
                want = (paired.find_ancestors(point, q_stats,
                                              after_start=after,
                                              finger=q_finger),
                        list(paired.seek(point, finger=q_finger)))
                assert got == want, here
                assert got[1] == expected_seek, here
                assert charges(p_stats) == charges(q_stats), here
                assert io(probed) == io(paired), here
                assert probed.pool.pinned_count == 0, here
                stab_pages += p_stats.stab_pages
    assert stab_pages, "CHAOS_SEED=%d read no stab-list page" % SEED


def after_starts(rng, entries, finger, point):
    """``after_start`` values for a probe at ``point``, drawn once the
    finger's path ends at ``point``'s leaf: None, one below a start in
    that leaf, a start in an earlier leaf, and values at or beside the
    path's separator keys."""
    leaf, low, _high, _memo = finger.path[-1]
    separators = [key for node, _low, _high, _memo in finger.path[:-1]
                  for key in node.keys]
    if low != float("-inf"):
        separators.append(low)
    earlier = [e.start for e in entries if e.start < low]
    yield None
    for record in rng.sample(leaf.records, min(3, len(leaf.records))):
        yield record.start - 1
    if earlier:
        yield rng.choice(earlier)
    for key in rng.sample(separators, min(3, len(separators))):
        yield key + rng.choice((-1, 0, 1))


def test_leaf_local_find_ancestors_matches_brute_force():
    rng = random.Random("%s/leaf-local" % SEED)
    local = stabbing = 0
    for number in range(ROUNDS):
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        order = region_set(rng)
        entries = sorted(order, key=attrgetter("start"))
        tree = built(entries, leaf, internal,
                     None if number % 2 == 0 else order)
        pool = tree.pool
        hi = max(e.end for e in entries) + 2
        for _ in range(PROBES):
            point = (rng.choice(entries).start + rng.randrange(2)
                     if rng.random() < 0.7 else rng.randrange(-2, hi))
            finger = Finger()
            tree.seek(point, finger=finger)
            low = finger.path[-1][1]
            for after in list(after_starts(rng, entries, finger, point)):
                here = ("CHAOS_SEED=%d round %d" % (SEED, number), point,
                        after)
                floor = float("-inf") if after is None else after
                want = [e for e in entries if floor < e.start < point < e.end]
                is_local = low <= floor
                stats = JoinStats()
                requests = pool.stats.requests
                got = tree.find_ancestors(point, stats, after_start=after,
                                          finger=finger)
                assert got == want, here
                assert stats.elements_scanned == len(want), here
                assert pool.pinned_count == 0, here
                if is_local:
                    assert pool.stats.requests == requests, here
                    assert stats.stab_pages == 0, here
                    local += low != float("-inf") and bool(want)
                else:
                    stabbing += bool(want)
                for level in {e.level for e in want} | {0}:
                    assert tree.find_ancestors(
                        point, after_start=after, required_level=level,
                        finger=finger) == [e for e in want
                                           if e.level == level], here
                    assert pool.pinned_count == 0, here
    assert local and stabbing, (SEED, local, stabbing)


def test_find_ancestors_on_an_empty_input():
    stats, finger = JoinStats(), Finger()
    tree = fresh_tree()
    assert tree.find_ancestors(5, stats, finger=finger) == []
    assert finger.path == []
    assert list(tree.seek(5, finger=finger)) == []
    assert charges(stats) == (0, 0)


def shared_pool_twins(rng, ancestors, descendants):
    """Two identical ``(atree, dtree)`` pairs, each in a small pool of its
    own shared by its two trees: leaves of 2-4, internal nodes of 2-4."""
    leaf, internal = rng.randrange(2, 5), rng.randrange(2, 5)
    capacity = rng.randrange(6, 16)
    bulk = rng.random() < 0.5
    orders = [list(side) for side in (ancestors, descendants)]
    for side in orders:
        rng.shuffle(side)
    built = []
    for _ in range(2):
        pool = BufferPool(InMemoryDisk(512), capacity=capacity)
        trees = []
        for side, order in zip((ancestors, descendants), orders):
            tree = XRTree(pool, leaf_capacity=leaf,
                          internal_capacity=internal)
            if bulk:
                tree.bulk_load(side)
            else:
                for entry in order:
                    tree.insert(entry)
            trees.append(tree)
        pool.flush_all()
        built.append(trees)
    return built, (leaf, internal, capacity, bulk)


def requested_pages(pool):
    """Spy on ``pool.fetch``: the list of page ids it is asked for."""
    requested, fetch = [], pool.fetch

    def spied(page_id, *args, **kwargs):
        requested.append(page_id)
        return fetch(page_id, *args, **kwargs)

    pool.fetch = spied
    return requested


def cursor_xr_stack(atree, dtree):
    """XR-stack on the descendant axis over two XR-trees, reading on after
    each probe through a new :class:`RecordCursor` at the finger's
    ``(leaf, slot)``: ``(pairs, stats)``."""
    stats, pairs, stack = JoinStats(), [], []
    a_items, d_items = iter(atree.first()), iter(dtree.first())
    a, d = next(a_items, None), next(d_items, None)
    a_finger, d_finger = Finger(), Finger()
    while d is not None and (a is not None or stack):
        while stack and stack[-1].end < d.start:
            stack.pop()
        stats.elements_scanned += 1
        if a is not None and a.start <= d.start:
            if a.start < d.start:
                stack += atree.find_ancestors(d.start, stats, a.start - 1,
                                              finger=a_finger)
                stats.ancestor_skips += 1
                leaf = a_finger.path[-1][0]
                a_items = iter(RecordCursor(atree.pool, leaf.page_id,
                                            a_finger.slot, leaf))
                a = next(a_items, None)
            if a is not None and a.start == d.start:
                stack.append(a)
                a = next(a_items, None)
        elif not stack:
            if a is None:
                break
            stats.descendant_skips += 1
            d_items = iter(dtree.seek_after(a.start, finger=d_finger))
            d = next(d_items, None)
            continue
        pairs += [(x, d) for x in stack if x.start < d.start]
        d = next(d_items, None)
    return pairs, stats


def test_xr_stack_reads_on_across_leaf_boundaries_as_a_cursor_would():
    rng = random.Random("%s/boundary" % SEED)
    crossings = 0
    for number in range(ROUNDS):
        ancestors, descendants = sides(rng, region_set(rng))
        (joined, replayed), shape = shared_pool_twins(rng, ancestors,
                                                      descendants)
        here = "CHAOS_SEED=%d round %d %r" % (SEED, number, shape)
        atree = joined[0]
        find_ancestors = atree.find_ancestors

        def probe(point, *args, finger=None):
            nonlocal crossings
            found = find_ancestors(point, *args, finger=finger)
            leaf = finger.path[-1][0]
            crossings += finger.slot == len(leaf.records) and bool(
                leaf.next_id)
            return found

        atree.find_ancestors = probe
        requests = [requested_pages(trees[0].pool)
                    for trees in (joined, replayed)]
        expected = nested_loop_join(ancestors, descendants)
        for run in range(2):  # cold, then on what the first run left
            pairs, stats = xr_stack_join(*joined)
            want, want_stats = cursor_xr_stack(*replayed)
            assert sort_pairs(pairs) == expected, (here, run)
            assert sort_pairs(want) == expected, (here, run)
            assert (stats.elements_scanned, stats.ancestor_skips,
                    stats.descendant_skips, stats.stab_pages) == (
                want_stats.elements_scanned, want_stats.ancestor_skips,
                want_stats.descendant_skips, want_stats.stab_pages), \
                (here, run)
            assert requests[0] == requests[1], (here, run)
            assert io(joined[0]) == io(replayed[0]), (here, run)
            assert joined[0].pool.pinned_count == 0, (here, run)
    assert crossings, "CHAOS_SEED=%d crossed no leaf boundary" % SEED


def test_xr_stack_traces_one_find_ancestors_call_per_ancestor_skip(
        monkeypatch):
    """The perf tracer wraps ``XRTree.find_ancestors`` on the class and
    reports its calls per unit as an exact counter; XR-stack must reach
    FindAncestors through that attribute, once per ancestor step."""
    calls = []
    original = XRTree.__dict__["find_ancestors"]

    def traced(tree, *args, **kwargs):
        calls.append(args[0])
        return original(tree, *args, **kwargs)

    monkeypatch.setattr(XRTree, "find_ancestors", traced)
    rng = random.Random("%s/traced" % SEED)
    for _ in range(4):
        ancestors, descendants = sides(rng, region_set(rng))
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        atree = indexed(rng, "xr", ancestors, leaf, internal)
        dtree = indexed(rng, "xr", descendants, leaf, internal)
        del calls[:]
        _pairs, stats = xr_stack_join(atree, dtree, collect=False)
        assert stats.ancestor_skips > 0
        assert len(calls) == stats.ancestor_skips


RECURSIVE_TAGS = ((DEPARTMENT_DTD, ("employee",)),
                  (AUCTION_DTD, ("parlist", "listitem")))


def test_self_join_on_recursive_documents_issues_no_probe():
    rng = random.Random("%s/self-join" % SEED)
    nested = 0
    for number in range(ROUNDS):
        dtd, tags = rng.choice(RECURSIVE_TAGS)
        config = GeneratorConfig(mean_repeat=rng.uniform(1.8, 2.6),
                                 recursion_decay=rng.uniform(0.6, 0.9),
                                 max_depth=28)
        document = XmlGenerator(dtd, config, seed=rng.randrange(1 << 30)) \
            .generate(rng.randrange(300, 1200), doc_id=1)
        tag = rng.choice(tags)
        entries = document.entries_for_tag(tag)
        order = list(entries)
        rng.shuffle(order)
        tree = built(entries, rng.randrange(4, 9), rng.randrange(4, 9),
                     None if number % 2 == 0 else order)
        memory = MemoryElementList(entries)
        for parent_child in (False, True):
            expected = nested_loop_join(entries, entries,
                                        parent_child=parent_child)
            nested += len(expected)
            for atree, dtree in ((tree, tree), (memory, tree),
                                 (memory, memory)):
                here = ("CHAOS_SEED=%d round %d" % (SEED, number), tag,
                        parent_child, type(atree).__name__,
                        type(dtree).__name__)
                calls = counting_probes(tree)
                try:
                    pairs, stats = xr_stack_join(atree, dtree,
                                                 parent_child=parent_child)
                finally:
                    del tree.find_ancestors
                assert sort_pairs(pairs) == expected, here
                assert calls == [], here
                assert (stats.ancestor_skips, stats.stab_pages) == (0, 0), \
                    here
                assert stats.elements_scanned == len(entries), here
                assert tree.pool.pinned_count == 0, here
    assert nested, "CHAOS_SEED=%d joined no nested pair" % SEED
