"""``semi_join`` keeps the matches, not the pairs: a differential test.

For random multi-document corpora, the distinct matched ancestors and
descendants of :func:`repro.query.engine.semi_join` must equal those of the
nested-loop oracle, for both kernels, a list or a stored XR-tree as the
descendant side, ancestor-descendant and parent-child, and overlapping
(same-tag) sets.  The sink it hands the kernels must also charge exactly
what a pair-collecting run charges: ``stats.pairs``, ``elements_scanned``
and the row cap's trip point.

Seeded: set ``CHAOS_SEED`` to reproduce a run.
"""

import os
import random

import pytest

from repro.core import XmlDatabase
from repro.core.api import StorageContext, build_xr_tree
from repro.joins import MemoryElementList, nested_loop_join
from repro.joins.base import JoinStats
from repro.query.engine import semi_join, stack_tree_join, xr_stack_join
from repro.query.runtime import QueryContext, RowCapExceeded

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
TAGS = ("a", "b", "c")
KERNELS = {"xr-stack": xr_stack_join, "stack-tree": stack_tree_join}


def _random_xml(rng, depth=0):
    tag = rng.choice(TAGS)
    children = ("" if depth >= 6 else
                "".join(_random_xml(rng, depth + 1)
                        for _ in range(rng.randrange(0, 4))))
    return "<%s>%s</%s>" % (tag, children, tag)


def _corpus(rng):
    db = XmlDatabase.create()
    for _ in range(rng.randrange(2, 5)):
        db.add_document("<r>%s</r>" % "".join(
            _random_xml(rng) for _ in range(rng.randrange(1, 5))))
    return db


def _cases():
    """(trial, ancestor tag, descendant tag, parent_child) — every tag
    pair, same-tag included, on both axes."""
    for trial in range(4):
        for a_tag in TAGS:
            for d_tag in TAGS:
                for parent_child in (False, True):
                    yield trial, a_tag, d_tag, parent_child


def _inputs(corpus, a_tag, d_tag, pool):
    ancestors = corpus.entries_for_tag(a_tag)
    descendants = corpus.entries_for_tag(d_tag)
    stored = build_xr_tree(descendants, pool) if descendants else None
    return ancestors, descendants, stored


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
@pytest.mark.parametrize("trial,a_tag,d_tag,parent_child", list(_cases()))
def test_semi_join_matches_the_oracle(algorithm, trial, a_tag, d_tag,
                                      parent_child):
    corpus = _corpus(random.Random(SEED + trial))
    pool = StorageContext(page_size=512, buffer_pages=64).pool
    ancestors, descendants, stored = _inputs(corpus, a_tag, d_tag, pool)
    if not ancestors or not descendants:
        pytest.skip("empty element set in this corpus")
    pairs = nested_loop_join(ancestors, descendants, parent_child)
    matched_a = {a.start for a, _ in pairs}
    matched_d = {d.start for _, d in pairs}
    expected = ([a for a in ancestors if a.start in matched_a],
                [d for d in descendants if d.start in matched_d])
    for side in (descendants, stored):
        stats = JoinStats()
        assert semi_join(ancestors, side, parent_child, stats,
                         algorithm) == expected
        assert semi_join(ancestors, side, parent_child, JoinStats(),
                         algorithm, matched_ancestors=False) \
            == (None, expected[1])
        # Charges equal a pair-collecting run of the same kernel.
        collecting = JoinStats()
        collected, _ = KERNELS[algorithm](
            MemoryElementList(ancestors),
            MemoryElementList(descendants) if side is descendants
            else side, parent_child=parent_child, stats=collecting)
        assert stats.pairs == collecting.pairs == len(pairs) \
            == len(collected)
        assert stats.elements_scanned == collecting.elements_scanned


def _trip(run, cap):
    """``(elements_scanned, pairs)`` when ``cap`` trips, None if it holds."""
    stats = JoinStats()
    stats.runtime = QueryContext(row_cap=cap).start()
    try:
        run(stats)
    except RowCapExceeded:
        return stats.elements_scanned, stats.pairs
    return None


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_row_cap_trips_where_a_collecting_run_does(algorithm):
    rng = random.Random(SEED)
    corpus = _corpus(rng)
    while len(nested_loop_join(corpus.entries_for_tag("a"),
                               corpus.entries_for_tag("b"))) < 4:
        corpus = _corpus(rng)
    pool = StorageContext(page_size=512, buffer_pages=64).pool
    ancestors, descendants, stored = _inputs(corpus, "a", "b", pool)
    total = len(nested_loop_join(ancestors, descendants))

    def matching(stats):
        semi_join(ancestors, stored, False, stats, algorithm)

    def collecting(stats):
        KERNELS[algorithm](MemoryElementList(ancestors), stored,
                           stats=stats)

    for cap in range(total):
        tripped = _trip(matching, cap)
        assert tripped == _trip(collecting, cap)
        assert tripped is not None and tripped[1] == cap + 1
    assert _trip(matching, total) is None
