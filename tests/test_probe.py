"""``probe`` is FindAncestors and the re-seek past the point in one lookup.

XR-stack's ancestor step (Algorithm 6 lines 9-13) asks an XR-tree
ancestor input ``probe(p, stats, after, finger)`` once.  For random region
sets indexed as XR-trees (bulk loaded or built by inserts in random order,
leaf and internal capacities 4-8), a probe must answer
``(find_ancestors(p, stats, after_start=after, finger=finger),
list(seek(p)))`` — with a finger kept across probes and with none — charge
the same ``elements_scanned`` and ``stab_pages`` as that pair, request and
miss the same pages as the pair on a twin tree in the same pool state, and
leave no frame pinned.  Without a finger a probe costs what the pair
costs sharing a new one: one descent.

A second sweep holds FindAncestors' leaf-local answer — taken when the
leaf covering the point also covers ``after_start`` — to brute force.  On
the same kinds of trees it draws ``after_start`` as None, one below a
start in the point's own leaf, a start in an earlier leaf, or a value at
or beside a separator key, not only below an ancestor of the point: the
answer (also with ``required_level``) must be the entries starting in
``(after_start, point)`` that end past ``point``, charged one unit each,
with no frame left pinned, and a leaf-local call through a finger already
on its leaf must request no page.

A third check keeps the perf tracer's exact counter honest: an XR-stack
join over two XR-trees makes one call to ``XRTree.find_ancestors``, as
looked up on the class, per ancestor skip.

A fourth sweep joins a tag with itself on random documents of the
recursive DTDs (``employee`` in the Department DTD, ``parlist`` and
``listitem`` in the auction one), on the descendant and the child axis,
with an XR-tree or a memory list on the ancestor side: the pairs must be
the nested-loop oracle's, and XR-stack must issue no probe into the tree —
each of its ancestor steps starts on CurD's own element, where
FindAncestors has nothing to find — and must charge one unit per element,
over the tree as over the merged list.

The sweep is seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random
from operator import attrgetter

from repro.indexes.bptree import Finger
from repro.indexes.xrtree import XRTree
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


def test_probe_is_find_ancestors_then_seek():
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
        fingers = {"kept": (Finger(), Finger()), "none": None}
        for point, after in probe_points(rng, entries):
            expected_seek = [e for e in entries if e.start >= point]
            for kind, kept in fingers.items():
                here = (context, kind, point, after)
                if kept is None:
                    p_finger, q_finger = None, Finger()
                else:
                    p_finger, q_finger = kept
                p_stats, q_stats = JoinStats(), JoinStats()
                ancestors, items = probed.probe(point, p_stats, after,
                                                p_finger)
                got = (ancestors, list(items))
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


def test_probing_an_empty_input():
    stats = JoinStats()
    ancestors, items = fresh_tree().probe(5, stats)
    assert (ancestors, list(items)) == ([], [])
    assert charges(stats) == (0, 0)


def test_xr_stack_traces_one_find_ancestors_call_per_ancestor_skip(
        monkeypatch):
    """The perf tracer wraps ``XRTree.find_ancestors`` on the class and
    reports its calls per unit as an exact counter; ``probe`` must reach
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
                    del tree.probe
                assert sort_pairs(pairs) == expected, here
                assert calls == [], here
                assert (stats.ancestor_skips, stats.stab_pages) == (0, 0), \
                    here
                assert stats.elements_scanned == len(entries), here
                assert tree.pool.pinned_count == 0, here
    assert nested, "CHAOS_SEED=%d joined no nested pair" % SEED
