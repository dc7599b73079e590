"""Differential sweep: ``XRTree.insert(run)`` against per-entry inserts.

Twin trees are built at small node capacities; the same start-sorted runs
go into one with a single call each and into the other an entry at a time.
The runs land at the right edge, in the middle (interleaved with stored
keys), into an empty tree, as single entries and across many leaves.  Both
trees must hold the same entries, keep every invariant of Definition 4
including the d..2d occupancy bounds, answer FindAncestors alike and leave
no frame pinned — and across the sweep the run path must have split leaves,
internal nodes and the root.

The sweep is seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random

import pytest

from repro.indexes.xrtree import XRTreeError, check_xrtree
from repro.storage.pages import ElementEntry
from tests.test_xrtree_property import fresh_tree
from tests.test_xrtree_run_delete import region_set

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
TREES = 12

#: Structural events insertion reaches; all must fire under run inserts.
INSERT_EVENTS = ("leaf_splits", "internal_splits", "root_splits")

#: Run lengths: single entries, a few, and many leaves' worth.
LENGTHS = (1, 1, 2, 5, 20, 80, 300)


def ascending_runs(rng, entries, interleaved):
    """Cut ``entries`` into strictly start-ascending runs.

    Interleaved runs are drawn at random across the whole key range, so
    each lands between stored keys; otherwise the runs are consecutive
    slices in key order, each past every stored start.
    """
    ordered = sorted(entries, key=lambda e: e.start)
    if interleaved:
        count = rng.randrange(2, 12)
        groups = [[] for _ in range(count)]
        for entry in ordered:
            groups[rng.randrange(count)].append(entry)
        return [group for group in groups if group]
    runs = []
    while ordered:
        length = rng.choice(LENGTHS)
        runs.append(ordered[:length])
        ordered = ordered[length:]
    return runs


def assert_twins_agree(by_run, by_entry, live, rng, context):
    for tree in (by_run, by_entry):
        check_xrtree(tree, check_fill=True)
        assert tree.size == len(live), context
        assert tree.pool.pinned_count == 0, context
    assert [(e.start, e.end) for e in by_run.items()] \
        == [(e.start, e.end) for e in by_entry.items()] \
        == [(s, live[s].end) for s in sorted(live)], context
    for _ in range(5):
        point = rng.randrange(1, 2 * max(live) + 2)
        expected = [s for s in sorted(live) if s < point < live[s].end]
        for tree in (by_run, by_entry):
            assert [a.start for a in tree.find_ancestors(point)] \
                == expected, context


def test_run_insert_matches_per_entry_insert():
    rng = random.Random(SEED)
    fired = dict.fromkeys(INSERT_EVENTS, 0)
    for number in range(TREES):
        leaf, internal = rng.randrange(4, 9), rng.randrange(4, 9)
        interleaved = number % 2 == 1
        runs = ascending_runs(rng, region_set(rng), interleaved)
        by_run = fresh_tree(leaf, internal)
        by_entry = fresh_tree(leaf, internal)
        live = {}
        context = "CHAOS_SEED=%d tree %d (leaf %d, internal %d, %s)" % (
            SEED, number, leaf, internal,
            "interleaved" if interleaved else "right edge")
        for run in runs:
            by_run.insert(run)
            for entry in run:
                by_entry.insert(entry)
            live.update((e.start, e) for e in run)
            assert_twins_agree(by_run, by_entry, live, rng, context)
        for event in INSERT_EVENTS:
            fired[event] += by_run.maintenance_stats[event]
    idle = [event for event, count in fired.items() if not count]
    assert not idle, "CHAOS_SEED=%d never exercised %s" % (SEED, idle)


def test_single_entry_is_the_degenerate_run():
    """``insert(e)`` and ``insert([e])`` are one walk: the trees end up
    identical, page for page and split for split."""
    rng = random.Random(SEED)
    entries = region_set(rng)
    bare = fresh_tree(4, 4)
    listed = fresh_tree(4, 4)
    for entry in entries:
        bare.insert(entry)
        listed.insert([entry])
    assert list(bare.items()) == list(listed.items())
    assert [e.in_stab_list for e in bare.items()] \
        == [e.in_stab_list for e in listed.items()]
    assert bare.maintenance_stats == listed.maintenance_stats
    assert bare.height == listed.height


def test_a_right_edge_run_fills_its_leaves():
    """A run appended past every stored start cuts each leaf full and
    balances only its last cut; one entry at a time leaves them half
    full."""
    entries = [ElementEntry(1, 2 * i + 1, 2 * i + 2, 1, False, i)
               for i in range(100)]
    by_run = fresh_tree(8, 8)
    by_entry = fresh_tree(8, 8)
    by_run.insert(entries[:3])
    by_run.insert(entries[3:])
    for entry in entries:
        by_entry.insert(entry)
    fills = [len(leaf) for leaf in leaf_records(by_run)]
    assert fills[:-2] == [8] * (len(fills) - 2)
    assert all(4 <= fill <= 8 for fill in fills[-2:])
    assert len(fills) == 13
    assert len(list(leaf_records(by_entry))) > len(fills)
    check_xrtree(by_run, check_fill=True)
    assert by_run.pool.pinned_count == 0


def leaf_records(tree):
    """Each leaf's records, left to right."""
    cursor = tree.first()
    page_id = cursor.page_id
    while page_id:
        with tree.pool.pinned(page_id) as leaf:
            records, page_id = list(leaf.records), leaf.next_id
        yield records


#: Runs a tree holding ``stored`` must refuse, with nothing changed.
BAD_RUNS = {
    "repeated key": lambda stored, fresh: [fresh[0], fresh[0]],
    "descending": lambda stored, fresh: [fresh[1], fresh[0]],
    "stored key": lambda stored, fresh: [stored[-1]],
    "stored key heading a run": lambda stored, fresh: [stored[4]]
    + fresh[4:7],
}


@pytest.mark.parametrize("name", sorted(BAD_RUNS))
def test_bad_run_is_rejected_and_the_tree_stays_valid(name):
    rng = random.Random(SEED)
    entries = sorted(region_set(rng), key=lambda e: e.start)
    stored, fresh = entries[::2], entries[1::2]
    tree = fresh_tree(4, 4)
    tree.insert(stored)
    before = list(tree.items())
    with pytest.raises(XRTreeError):
        tree.insert(BAD_RUNS[name](stored, fresh))
    assert list(tree.items()) == before
    assert tree.pool.pinned_count == 0
    check_xrtree(tree, check_fill=True)


def test_a_clash_in_a_later_leaf_keeps_the_earlier_leaves():
    rng = random.Random(SEED)
    entries = sorted(region_set(rng), key=lambda e: e.start)
    stored, fresh = entries[::2], entries[1::2]
    tree = fresh_tree(4, 4)
    tree.insert(stored)
    clash = sorted(fresh[:30] + [stored[40]], key=lambda e: e.start)
    with pytest.raises(XRTreeError,
                       match="duplicate key %d" % stored[40].start):
        tree.insert(clash)
    assert tree.pool.pinned_count == 0
    check_xrtree(tree, check_fill=True)
    held = {e.start for e in tree.items()}
    assert fresh[0].start in held
    assert {e.start for e in stored} < held \
        <= {e.start for e in stored + fresh[:30]}


def test_a_document_cycle_keeps_every_tag_tree_in_bounds():
    """Twenty documents added, then replaced oldest first — the shape of
    the ``cluster_rw`` benchmark — leave every tag tree within d..2d."""
    from repro.core.database import XmlDatabase
    from repro.xmldata import GeneratorConfig, XmlGenerator
    from repro.xmldata.dtd import AUCTION_DTD

    generator = XmlGenerator(
        AUCTION_DTD,
        GeneratorConfig(mean_repeat=2.0, recursion_decay=0.75, max_depth=30),
        seed=SEED)
    documents = [generator.generate(300, doc_id=i + 1) for i in range(20)]
    db = XmlDatabase.create(page_size=1024, buffer_pages=128)
    live = [db.add_document(document) for document in documents]
    for document in documents:
        live.append(db.add_document(document))
        db.remove_document(live.pop(0))
    db.flush()
    assert db.verify() == len(db.tags())
    for tag in db.tags():
        check_xrtree(db._tree_for(tag), check_fill=True)
    assert db._context.pool.pinned_count == 0
