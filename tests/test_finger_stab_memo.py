"""Differential sweep: joins through a finger against finger-less probes.

Each round draws a random nested/disjoint region set, splits it into an
ancestor and a descendant side that may share elements, and indexes both at
random leaf and internal capacities 4-8, bulk loaded or inserted in random
order.  ``xr_stack_join`` must return the pairs ``stack_tree_join`` does,
and every ``find_ancestors`` it makes through its finger — whose nodes keep
the stab-list pages already searched — must answer and charge exactly what
the same probe without a finger does.  ``bplus_join`` over B+-trees of the
same sides must agree too, and no join may leave a frame pinned.  Across
the sweep some stab list must have a ps directory and the memo must have
saved stab-page requests.

The sweep is seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random

from repro.indexes.bptree import BPlusTree
from repro.joins import (
    JoinStats,
    MemoryElementList,
    bplus_join,
    stack_tree_join,
    xr_stack_join,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from tests.test_xrtree_property import fresh_tree, stab_chains
from tests.test_xrtree_run_delete import region_set

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
ROUNDS = 12


def sides(rng, entries):
    """Ancestor and descendant sides drawn from one region set, start
    sorted; an element lands on either side, both, or neither."""
    ancestors, descendants = [], []
    for entry in sorted(entries, key=lambda e: e.start):
        draw = rng.random()
        if draw < 0.6:
            ancestors.append(entry)
        if draw > 0.3:
            descendants.append(entry)
    return ancestors, descendants


def indexed(rng, kind, entries, leaf, internal):
    """An XR-tree or B+-tree over ``entries``, bulk loaded or built by
    inserts in random order."""
    if kind == "xr":
        tree = fresh_tree(leaf, internal)
    else:
        tree = BPlusTree(BufferPool(InMemoryDisk(512), capacity=48),
                         leaf_capacity=leaf, internal_capacity=internal)
    if rng.random() < 0.5:
        tree.bulk_load(entries)
    else:
        order = list(entries)
        rng.shuffle(order)
        for entry in order:
            tree.insert(entry)
    return tree


class CheckedProbes:
    """Wraps ``tree.find_ancestors`` so that each probe the join makes is
    repeated without its finger and must answer and charge alike."""

    def __init__(self, tree, context):
        self.fingered = tree.find_ancestors
        self.context = context
        self.saved = 0

    def __call__(self, point, counter=None, after_start=None,
                 required_level=None, finger=None):
        fingered, alone = JoinStats(), JoinStats()
        got = self.fingered(point, fingered, after_start, required_level,
                            finger)
        assert got == self.fingered(point, alone, after_start,
                                    required_level), \
            (self.context, point, after_start)
        assert fingered.elements_scanned == alone.elements_scanned, \
            (self.context, point, after_start)
        self.saved += alone.stab_pages - fingered.stab_pages
        counter.merge(fingered)
        return got


def pair_keys(pairs):
    return sorted((a.start, d.start) for a, d in pairs)


def test_joins_through_a_finger_match_fingerless_probes():
    rng = random.Random(SEED)
    saved = directories = 0
    for number in range(ROUNDS):
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        ancestors, descendants = sides(rng, region_set(rng))
        context = "CHAOS_SEED=%d round %d (leaf %d, internal %d)" % (
            SEED, number, leaf, internal)
        expected = pair_keys(stack_tree_join(
            MemoryElementList(ancestors), MemoryElementList(descendants))[0])
        atree = indexed(rng, "xr", ancestors, leaf, internal)
        dtree = indexed(rng, "xr", descendants, leaf, internal)
        probes = atree.find_ancestors = CheckedProbes(atree, context)
        pairs, _stats = xr_stack_join(atree, dtree)
        assert pair_keys(pairs) == expected, context
        saved += probes.saved
        directories += sum(1 for directory, _pages
                           in stab_chains(atree).values() if directory)
        btrees = (indexed(rng, "b+", ancestors, leaf, internal),
                  indexed(rng, "b+", descendants, leaf, internal))
        bpairs, _stats = bplus_join(*btrees)
        assert pair_keys(bpairs) == expected, context
        for tree in (atree, dtree) + btrees:
            assert tree.pool.pinned_count == 0, context
    assert directories, "CHAOS_SEED=%d built no ps directory" % SEED
    assert saved > 0, "CHAOS_SEED=%d never reached the memo" % SEED
