"""Differential sweep: ``XRTree.delete(lo, hi)`` against per-key deletes.

Two identical trees are built at small node capacities; random start ranges
are then removed from one with a single run delete and from the other key by
key.  Both must remove the same entries, keep every invariant of Definition 4
including the d..2d occupancy bounds, answer FindAncestors alike and leave no
frame pinned — and across the sweep the run-delete trees must have exercised
every rebalancing path.

The sweep is seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random

from repro.indexes.xrtree import check_xrtree
from tests.test_xrtree_property import fresh_tree, tree_shape_to_entries

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
TREES = 12

#: Rebalancing paths only deletion reaches; all must fire under run deletes.
DELETE_EVENTS = ("leaf_borrows", "leaf_merges", "internal_rotations",
                 "internal_merges", "push_downs", "root_shrinks")


def build(entries, leaf, internal, fill_factor=None):
    """Insert one by one, or bulk-load at ``fill_factor`` when given."""
    tree = fresh_tree(leaf, internal)
    if fill_factor is None:
        for e in entries:
            tree.insert(e)
    else:
        tree.bulk_load(sorted(entries, key=lambda e: e.start), fill_factor)
    return tree


def region_set(rng):
    """A valid nested/disjoint region set of a few hundred elements, in
    random order."""
    entries = []
    while len(entries) < 200:  # a shape can die out after a few nodes
        entries = tree_shape_to_entries(
            [rng.choice((0, 1, 1, 2, 2, 3))
             for _ in range(rng.randrange(300, 600))])
    rng.shuffle(entries)
    return entries


def random_range(rng, live):
    """A start range over the live keys: within a leaf, across many, with
    endpoints on keys or in the gaps between them, sometimes empty."""
    starts = sorted(live)
    low_at = rng.randrange(len(starts))
    width = rng.choice((0, 1, 3, 10, 40, 150))
    high_at = min(len(starts) - 1, low_at + rng.randrange(width + 1))
    low = starts[low_at] - rng.randrange(2)
    high = starts[high_at] + rng.randrange(2)
    if rng.random() < 0.1:
        high = low  # a point, present or not
    return low, high


def test_run_delete_matches_per_key_delete():
    rng = random.Random(SEED)
    fired = dict.fromkeys(DELETE_EVENTS, 0)
    for number in range(TREES):
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        entries = region_set(rng)
        # Every third pair is bulk-loaded: its part-full tail nodes need
        # more than one record or key when they are topped up, but rule
        # out the occupancy check.
        fill_factor = rng.choice((0.5, 0.75, 1.0)) if number % 3 == 2 else None
        by_run = build(entries, leaf, internal, fill_factor)
        by_key = build(entries, leaf, internal, fill_factor)
        live = {e.start: e for e in entries}
        context = "CHAOS_SEED=%d tree %d (leaf %d, internal %d)" % (
            SEED, number, leaf, internal)
        while live:
            # Every fifth range drains what is left, so trees shrink to
            # nothing through the same code.
            low, high = ((min(live), max(live)) if rng.random() < 0.2
                         else random_range(rng, live))
            doomed = [s for s in sorted(live) if low <= s <= high]
            removed = by_run.delete(low, high)
            assert [e.start for e in removed] == doomed, context
            assert all(live[e.start].end == e.end for e in removed), context
            assert sum(by_key.delete(s) is not None for s in doomed) \
                == len(removed), context
            for start in doomed:
                del live[start]
            for tree in (by_run, by_key):
                check_xrtree(tree, check_fill=fill_factor is None)
                assert tree.size == len(live), context
                assert tree.pool.pinned_count == 0, context
            assert [(e.start, e.end) for e in by_run.items()] \
                == [(e.start, e.end) for e in by_key.items()] \
                == [(s, live[s].end) for s in sorted(live)], context
            for _ in range(5):
                point = rng.randrange(1, 2 * len(entries) + 2)
                expected = [s for s in sorted(live)
                            if s < point < live[s].end]
                for tree in (by_run, by_key):
                    assert [a.start for a in tree.find_ancestors(point)] \
                        == expected, context
        assert by_run.root_id == 0 and by_key.root_id == 0, context
        for event in DELETE_EVENTS:
            fired[event] += by_run.maintenance_stats[event]
    idle = [event for event, count in fired.items() if not count]
    assert not idle, "CHAOS_SEED=%d never exercised %s" % (SEED, idle)


def test_point_delete_is_the_degenerate_run():
    """``delete(k)`` and ``delete(k, k)`` are one walk: the same entry comes
    back, bare or as a one-element list, and the trees end up identical."""
    rng = random.Random(SEED)
    entries = region_set(rng)
    bare = build(entries, 4, 4)
    ranged = build(entries, 4, 4)
    victims = [e.start for e in entries]
    rng.shuffle(victims)
    for start in victims[: len(victims) // 2]:
        entry = bare.delete(start)
        assert [entry] == ranged.delete(start, start)
        assert bare.delete(start) is None
        assert ranged.delete(start, start) == []
    assert list(bare.items()) == list(ranged.items())
    assert bare.maintenance_stats == ranged.maintenance_stats


def test_internal_rotation_moves_as_many_keys_as_asked():
    """One rotation carries any number of keys either way with the stab
    lists following: a tail node left part-full by a bulk load is the only
    place deletion asks for more than one, so ask directly (every node of
    an insert-built tree holds at least four of its eight keys)."""
    rng = random.Random(SEED)
    shuffled = region_set(rng)
    entries = sorted(shuffled, key=lambda e: e.start)
    for count in (1, 2, 3):
        for from_right in (True, False):
            tree = build(shuffled, 4, 8)
            assert tree.height >= 3
            pool = tree.pool
            parent = pool.fetch(tree.root_id)
            page_at, sibling_at = (0, 1) if from_right else (1, 0)
            page = pool.fetch(parent.children[page_at])
            sibling = pool.fetch(parent.children[sibling_at])
            keys = len(page.keys), len(sibling.keys)
            tree._rotate_internal(parent, 0, page, sibling, count,
                                  from_right)
            assert (len(page.keys), len(sibling.keys)) \
                == (keys[0] + count, keys[1] - count)
            for node in (sibling, page, parent):
                pool.unpin(node, dirty=True)
            check_xrtree(tree)
            assert list(tree.items()) == [e.with_flag(r.in_stab_list)
                                          for e, r in zip(entries,
                                                          tree.items())]
            for point in rng.sample(range(1, 2 * len(entries)), 40):
                assert [a.start for a in tree.find_ancestors(point)] \
                    == [e.start for e in entries
                        if e.start < point < e.end]


def test_a_run_starting_inside_a_leaf_tops_that_leaf_up_once():
    """The first leaf of a longer run is rebalanced after the run ends:
    topped up at once it would borrow, one record at a time, exactly what
    the run deletes next from its full right sibling."""
    from repro.storage.pages import ElementEntry

    entries = [ElementEntry(1, 2 * i + 1, 2 * i + 2, 1, False, i)
               for i in range(80)]  # ten full leaves of eight
    tree = build(entries, 8, 16, fill_factor=1.0)
    removed = tree.delete(entries[19].start, entries[43].start)
    assert [e.start for e in removed] == [e.start for e in entries[19:44]]
    # Leaf 2 keeps three records and takes the fourth from leaf 1; leaves
    # 3 and 4 are merged away; leaf 5 keeps its last four untouched.
    assert tree.maintenance_stats["leaf_borrows"] == 1
    assert tree.maintenance_stats["leaf_merges"] == 2
    check_xrtree(tree, check_fill=True)
    assert tree.pool.pinned_count == 0


def test_part_full_tail_node_is_topped_up_in_one_rotation():
    """Through the public API: a bulk load leaves the last internal node
    with one key of a minimum two, so when a leaf merge takes that key the
    node needs two — and one rotation from its left sibling brings both,
    after which every node meets the occupancy bound."""
    from repro.storage.pages import ElementEntry

    regions = [(1, 1000)]
    for base in range(1, 91, 10):  # a parent of two, again and again
        regions += [(base + 1, base + 8), (base + 2, base + 3),
                    (base + 4, base + 5)]
    live = [ElementEntry(1, start, end, 1, False, ordinal)
            for ordinal, (start, end) in enumerate(regions)]
    tree = build(live, 4, 4, fill_factor=1.0)  # 7 leaves under 5 + 2
    assert tree.height == 3
    while not tree.maintenance_stats["internal_rotations"]:
        assert tree.delete(live.pop().start) is not None
    assert tree.maintenance_stats["internal_rotations"] == 1
    assert tree.maintenance_stats["internal_merges"] == 0
    check_xrtree(tree, check_fill=True)
    for point in range(1, 100):
        assert [a.start for a in tree.find_ancestors(point)] \
            == [e.start for e in live if e.start < point < e.end]
