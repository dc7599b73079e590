"""Property-based tests for the XR-tree.

Strategies generate random *valid* XML-style region sets (strictly nested or
disjoint) from random tree shapes; a stateful machine interleaves inserts and
deletes, validating Definition 4's invariants and query answers after every
step.  A seeded sweep (``CHAOS_SEED``) holds the bulk load to byte-identical
pages whatever flags its input carries.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.indexes.bptree import BPlusTree, Finger
from repro.indexes.xrtree import XRInternalPage, XRTree, check_xrtree
from repro.joins import JoinStats, MemoryElementList
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.xmldata.model import Document, Element, annotate_regions
from tests.conftest import entry

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
BULK_ROUNDS = 40


def tree_shape_to_entries(shape, max_children=3):
    """Turn a child-count sequence into a region-encoded element list."""
    root = Element("r")
    frontier = [root]
    for value in shape:
        node = frontier.pop(0)
        for _ in range(value % (max_children + 1)):
            frontier.append(node.add_child(Element("c")))
        if not frontier:
            break
    annotate_regions(root)
    document = Document(root)
    return [entry(n.start, n.end, n.level) for n in document]


shapes = st.lists(st.integers(min_value=0, max_value=3),
                  min_size=1, max_size=120)


def fresh_tree(leaf=4, internal=3):
    pool = BufferPool(InMemoryDisk(512), capacity=48)
    return XRTree(pool, leaf_capacity=leaf, internal_capacity=internal)


def nested_towers(count, depth, leaves=2):
    """``count`` side-by-side chains of ``depth`` nested elements, each
    with ``leaves`` childless children: at small capacities the upper
    separators stab a tower's outer elements by the dozen, so the top
    nodes' stab lists run over several pages with a ps directory."""
    root = Element("r")
    for _ in range(count):
        node = root
        for _ in range(depth):
            node = node.add_child(Element("c"))
            for _ in range(leaves):
                node.add_child(Element("c"))
    annotate_regions(root)
    return [entry(n.start, n.end, n.level) for n in Document(root)]


def stab_chains(tree):
    """``{node page id: (ps directory page id or 0, [chain page ids])}``
    for every internal node of ``tree`` with a stab list."""
    chains, pending = {}, [tree.root_id] if tree.height > 1 else []
    pool = tree.pool
    while pending:
        node = pool.fetch(pending.pop())
        pool.unpin(node)
        if not isinstance(node, XRInternalPage):
            continue
        pending.extend(node.children)
        pages, page_id = [], node.sl_head
        while page_id:
            pages.append(page_id)
            page = pool.fetch(page_id)
            pool.unpin(page)
            page_id = page.next_id
        if pages:
            chains[node.page_id] = (node.sl_dir, pages)
    return chains


def page_images(tree):
    """Every allocated page of ``tree``'s disk as written (a bulk load
    frees none, so the ids run from 1)."""
    tree.pool.flush_all()
    disk = tree.pool.disk
    return [disk.peek(page_id)
            for page_id in range(1, disk.allocated_page_count + 1)]


class TestBulkLoadProperties:
    def test_seeded_sweep_is_flag_blind_and_leaves_its_input(self):
        """Random capacities 2-8, fill factors and inputs (tree shapes and
        nested towers, whose stab chains span pages and get a ps
        directory).  The same elements loaded unflagged, all flagged and
        randomly flagged give a valid tree and byte-identical page images,
        and the load leaves the caller's list and entries as they were.
        Seeded: set ``CHAOS_SEED`` to reproduce."""
        rng = random.Random(SEED)
        directories = 0
        for number in range(BULK_ROUNDS):
            leaf, internal = rng.randint(2, 8), rng.randint(2, 8)
            fill = rng.choice((1.0, rng.uniform(0.25, 1.0)))
            if rng.random() < 0.5:
                entries = tree_shape_to_entries(
                    [rng.randrange(4) for _ in range(rng.randint(1, 150))])
            else:
                entries = nested_towers(rng.randint(1, 4),
                                        rng.randint(5, 50), rng.randint(0, 2))
            context = "CHAOS_SEED=%d round %d (leaf %d, internal %d, " \
                "fill %.2f)" % (SEED, number, leaf, internal, fill)
            images = []
            for flags in ([False] * len(entries), [True] * len(entries),
                          [rng.random() < 0.5 for _ in entries]):
                given = [e.with_flag(flag) for e, flag in zip(entries, flags)]
                kept = list(map(id, given))
                fields = [(e.doc_id, e.start, e.end, e.level, e.in_stab_list,
                           e.ptr) for e in given]
                tree = fresh_tree(leaf, internal)
                tree.bulk_load(given, fill)
                check_xrtree(tree)
                assert list(map(id, given)) == kept, context
                assert [(e.doc_id, e.start, e.end, e.level, e.in_stab_list,
                         e.ptr) for e in given] == fields, context
                images.append(page_images(tree))
            assert images[1] == images[0], context
            assert images[2] == images[0], context
            directories += sum(1 for directory, _pages
                               in stab_chains(tree).values() if directory)
        assert directories, "CHAOS_SEED=%d built no ps directory" % SEED

    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_invariants(self, shape):
        entries = tree_shape_to_entries(shape)
        tree = fresh_tree()
        tree.bulk_load(entries)
        check_xrtree(tree)
        assert [e.start for e in tree.items()] == [e.start for e in entries]

    @given(shapes, st.integers(min_value=0, max_value=600))
    @settings(max_examples=60, deadline=None)
    def test_find_ancestors_matches_oracle(self, shape, point):
        entries = tree_shape_to_entries(shape)
        tree = fresh_tree()
        tree.bulk_load(entries)
        got = [a.start for a in tree.find_ancestors(point)]
        expected = [e.start for e in entries if e.start < point < e.end]
        assert got == expected
        # The bounds XR-stack passes: one unit per ancestor past
        # ``after_start``, charged before the ``required_level`` filter.
        after = expected[len(expected) // 2] if expected else point // 2
        for options in ({}, {"after_start": after}, {"required_level": 2},
                        {"after_start": after, "required_level": 3}):
            floor = options.get("after_start", float("-inf"))
            want = [e for e in entries if floor < e.start < point < e.end]
            stats = JoinStats()
            got = tree.find_ancestors(point, stats, **options)
            assert stats.elements_scanned == len(want)
            level = options.get("required_level")
            assert got == [e for e in want
                           if level is None or e.level == level]
        # The in-memory input seeks like the tree.
        memory = MemoryElementList(entries)
        for seek in ("seek", "seek_after"):
            assert next(getattr(memory, seek)(point), None) == \
                next(iter(getattr(tree, seek)(point)), None)

    @given(shapes, st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_find_descendants_matches_oracle(self, shape, a, b):
        low, high = min(a, b), max(a, b)
        entries = tree_shape_to_entries(shape)
        tree = fresh_tree()
        tree.bulk_load(entries)
        got = [d.start for d in tree.find_descendants(low, high)]
        expected = [e.start for e in entries if low < e.start < high]
        assert got == expected

    @given(shapes)
    @settings(max_examples=30, deadline=None)
    def test_dynamic_build_equals_bulk_build(self, shape):
        entries = tree_shape_to_entries(shape)
        bulk = fresh_tree()
        bulk.bulk_load(entries)
        dynamic = fresh_tree()
        for e in entries:
            dynamic.insert(e)
        check_xrtree(dynamic)
        assert list(bulk.items()) == list(dynamic.items())
        # Flags may differ (different key sets) but every query agrees.
        for probe in entries[:: max(1, len(entries) // 10)]:
            assert [a.start for a in bulk.find_ancestors(probe.start)] == \
                [a.start for a in dynamic.find_ancestors(probe.start)]


def built_tree(kind, entries, build, rng):
    """An XR-tree (``"xr"``) or B+-tree (``"b+"``) over ``entries``, bulk
    loaded or built by shuffled inserts with a third deleted again;
    returns the tree and the entries it holds."""
    if kind == "xr":
        tree = fresh_tree()
    else:
        tree = BPlusTree(BufferPool(InMemoryDisk(512), capacity=48),
                         leaf_capacity=4, internal_capacity=3)
    if build == "bulk":
        tree.bulk_load(entries)
        return tree, entries
    order = list(entries)
    rng.shuffle(order)
    for e in order:
        tree.insert(e)
    doomed = {e.start for e in order[: len(order) // 3]}
    for start in doomed:
        tree.delete(start)
    return tree, [e for e in entries if e.start not in doomed]


def probe_sequence(points, live=()):
    """The drawn points rising, falling back, as drawn and repeated; with
    ``live`` entries, each point also picks one of them and probes at or
    just after its start, so that probes have ancestors to find."""
    if live:
        points = points + [live[p % len(live)].start + p % 2 for p in points]
    return sorted(points) + sorted(points, reverse=True) + points + points


def assert_same_position(fingered, plain):
    """The two cursors yield the same head, then the same entries."""
    fingered, plain = iter(fingered), iter(plain)
    assert next(fingered, None) == next(plain, None)
    assert list(fingered) == list(plain)


def assert_fingered_probes_agree(tree, live, points, choose):
    """Probe ``tree`` at each of ``points`` through one shared finger, with
    ``after_start`` picked by ``choose`` from None and the point's
    ancestors: each answer, ``elements_scanned`` charge and seek position
    equals the finger-less probe's, and no frame stays pinned.  Returns the
    stab pages charged with the finger and without it."""
    finger = Finger()
    read = [0, 0]
    for point in points:
        ancestors = [e.start for e in live if e.start < point < e.end]
        after = choose([None] + ancestors)
        fingered, plain = JoinStats(), JoinStats()
        got = tree.find_ancestors(point, fingered, after_start=after,
                                  finger=finger)
        assert got == tree.find_ancestors(point, plain, after_start=after)
        assert [a.start for a in got] == \
            [s for s in ancestors if after is None or s > after]
        assert fingered.elements_scanned == plain.elements_scanned
        read[0] += fingered.stab_pages
        read[1] += plain.stab_pages
        for seek in ("seek", "seek_after"):
            assert_same_position(getattr(tree, seek)(point, finger=finger),
                                 getattr(tree, seek)(point))
        assert tree.pool.pinned_count == 0
    return read


builds = st.sampled_from(["bulk", "insert-delete"])
points = st.lists(st.integers(min_value=0, max_value=600), min_size=1,
                  max_size=12)


class TestFingerDifferential:
    """A probe through a finger shared with earlier probes returns, and
    charges, exactly what the same probe without a finger does."""

    @given(shapes, builds, points, st.randoms(use_true_random=False),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_xrtree_probes(self, shape, build, drawn, rng, data):
        tree, live = built_tree("xr", tree_shape_to_entries(shape), build,
                                rng)
        assert_fingered_probes_agree(
            tree, live, probe_sequence(drawn, live),
            lambda options: data.draw(st.sampled_from(options)))

    @given(shapes, builds, points, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_bptree_seeks(self, shape, build, drawn, rng):
        tree, _live = built_tree("b+", tree_shape_to_entries(shape), build,
                                 rng)
        finger = Finger()
        for point in probe_sequence(drawn):
            for seek in ("seek", "seek_after"):
                assert_same_position(getattr(tree, seek)(point, finger=finger),
                                     getattr(tree, seek)(point))
            assert tree.pool.pinned_count == 0

    @pytest.mark.parametrize("kind", ["xr", "b+"])
    @pytest.mark.parametrize("entries", [
        [],                                                   # empty
        [entry(1, 10)],                                       # one entry
        [entry(1, 10), entry(2, 4), entry(5, 9), entry(6, 7)],  # one leaf
    ], ids=["empty", "one-entry", "one-leaf"])
    def test_empty_and_one_leaf_trees(self, kind, entries):
        tree, _live = built_tree(kind, entries, "bulk", None)
        assert tree.height <= 1
        finger = Finger()
        for point in probe_sequence(list(range(12))):
            for seek in ("seek", "seek_after"):
                assert_same_position(getattr(tree, seek)(point, finger=finger),
                                     getattr(tree, seek)(point))
            if kind == "xr":
                assert tree.find_ancestors(point, finger=finger) == \
                    tree.find_ancestors(point)
            assert tree.pool.pinned_count == 0


    def test_memo_over_multi_page_stab_lists(self):
        """Deep nesting at small capacities: the finger's memo serves walks
        over stab lists with a ps directory and several chain pages, for
        rising, falling and repeated points with random ``after_start``."""
        entries = nested_towers(3, 60)
        tree = fresh_tree(4, 4)
        tree.bulk_load(entries)
        assert any(directory and len(pages) >= 2
                   for directory, pages in stab_chains(tree).values())
        rng = random.Random(28)
        top = max(e.end for e in entries)
        drawn = [rng.randrange(top + 2) for _ in range(60)]
        fingered, plain = assert_fingered_probes_agree(
            tree, entries, probe_sequence(drawn, entries), rng.choice)
        # The memo was reached: the finger read fewer stab pages.
        assert fingered < plain


class TestInsertionOrderIndependence:
    @given(shapes, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_shuffled_insertions_preserve_invariants(self, shape, rng):
        entries = tree_shape_to_entries(shape)
        rng.shuffle(entries)
        tree = fresh_tree()
        for e in entries:
            tree.insert(e)
        check_xrtree(tree)
        assert tree.size == len(entries)


class XRTreeMachine(RuleBasedStateMachine):
    """Random insert/delete interleavings with full invariant checking.

    The element universe is a fixed nested-region family plus disjoint
    singletons, so any subset is a valid strictly-nested set.
    """

    UNIVERSE = (
        # A deep nested chain.
        [(i, 1000 - i) for i in range(1, 60)]
        # Disjoint mid-size regions inside the chain.
        + [(100 + 10 * i, 100 + 10 * i + 7) for i in range(30)]
        # Tiny regions nested inside the mid-size ones.
        + [(100 + 10 * i + 2, 100 + 10 * i + 4) for i in range(30)]
        # Far-away disjoint singletons.
        + [(2000 + 3 * i, 2000 + 3 * i + 1) for i in range(30)]
    )

    def __init__(self):
        super().__init__()
        self.pool = BufferPool(InMemoryDisk(512), capacity=48)
        self.tree = XRTree(self.pool, leaf_capacity=4, internal_capacity=3)
        self.live = {}

    @rule(index=st.integers(min_value=0, max_value=len(UNIVERSE) - 1))
    def insert(self, index):
        start, end = self.UNIVERSE[index]
        if start in self.live:
            return
        self.tree.insert(entry(start, end))
        self.live[start] = end

    @rule(index=st.integers(min_value=0, max_value=len(UNIVERSE) - 1))
    def delete(self, index):
        start, _ = self.UNIVERSE[index]
        removed = self.tree.delete(start)
        if start in self.live:
            assert removed is not None and removed.start == start
            del self.live[start]
        else:
            assert removed is None

    @rule(point=st.integers(min_value=0, max_value=2200))
    def query_ancestors(self, point):
        got = [a.start for a in self.tree.find_ancestors(point)]
        expected = sorted(s for s, e in self.live.items() if s < point < e)
        assert got == expected

    @rule(low=st.integers(min_value=0, max_value=2200),
          span=st.integers(min_value=1, max_value=500))
    def query_descendants(self, low, span):
        got = [d.start for d in self.tree.find_descendants(low, low + span)]
        expected = sorted(s for s in self.live if low < s < low + span)
        assert got == expected

    @invariant()
    def tree_is_valid(self):
        check_xrtree(self.tree)
        assert self.tree.size == len(self.live)
        assert self.pool.pinned_count == 0


TestXRTreeStateMachine = XRTreeMachine.TestCase
TestXRTreeStateMachine.settings = settings(
    max_examples=20, stateful_step_count=50, deadline=None
)
