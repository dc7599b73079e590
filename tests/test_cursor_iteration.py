"""Iterating a cursor: its fetch schedule, and the kernels built on it.

The join kernels and leaf scans read their inputs by iterating a cursor;
nothing polls.  For random entry sets, page sizes, pool sizes and
``seek`` / ``seek_after`` keys over the four access methods, iterating
must yield the entries at or after the key and hold no pin while the
iterator is suspended.  Over pages it must request exactly one page each
time ``cursor.page_id`` changes between two yields and none otherwise,
none after the last entry, and miss no more often than it requests.  The
kernels built on it — MPMGJN's rescans included — must give the
nested-loop oracle's pairs, trip a row cap of ``k`` at pair ``k + 1``,
and flush their scan count when a page quota trips mid-join.

Seeded: set ``CHAOS_SEED`` to reproduce a run.
"""

import os
import random

import pytest

from repro.core import XmlDatabase
from repro.core.api import (
    StorageContext,
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
)
from repro.joins import (
    MemoryElementList,
    bplus_join,
    mpmgjn_join,
    nested_loop_join,
    stack_tree_join,
    xr_stack_join,
)
from repro.joins.base import JoinStats, sort_pairs
from repro.query.runtime import (
    PageQuotaExceeded,
    QueryContext,
    RowCapExceeded,
)
from repro.workloads import department_dataset

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
TAGS = ("a", "b", "c")

BUILDERS = {
    "paged-list": build_element_list,
    "b+tree": build_bplus_tree,
    "xr-tree": build_xr_tree,
    "memory": lambda entries, pool, fill_factor: MemoryElementList(
        list(entries)),
}
#: Each Table 1 kernel, and MPMGJN, with the access method it reads.
KERNELS = {
    "stack-tree": (stack_tree_join, "paged-list"),
    "b+": (bplus_join, "b+tree"),
    "xr-stack": (xr_stack_join, "xr-tree"),
    "mpmgjn": (mpmgjn_join, "paged-list"),
}
#: Kernels that take a ``MemoryElementList`` as their ancestor input.
MEMORY_ANCESTORS = ("stack-tree", "xr-stack")


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
            _random_xml(rng) for _ in range(rng.randrange(1, 6))))
    return db


def _source(rng, method, entries):
    """The source in a pool of a random page size and frame count."""
    page_size = rng.choice((256, 512, 1024))
    frames = rng.choice((8, 16, 64))
    fill_factor = rng.choice((0.5, 0.75, 1.0))
    pool = StorageContext(page_size=page_size, buffer_pages=frames).pool
    return pool, BUILDERS[method](entries, pool, fill_factor)


def _open(source, how, key):
    if how == "first":
        return source.first()
    return getattr(source, how)(key)


def _opened(entries, how, key):
    """The entries a read opened by ``how`` at ``key`` yields."""
    if how == "first":
        return list(entries)
    if how == "seek":
        return [e for e in entries if e.start >= key]
    return [e for e in entries if e.start > key]


def _counters(pool):
    return pool.stats.requests, pool.stats.misses


@pytest.mark.parametrize("method", sorted(BUILDERS))
@pytest.mark.parametrize("trial", range(6))
def test_iterating_k_entries_is_advancing_k_times(method, trial):
    """Each yield advances one entry; over pages it requests a page
    exactly when it enters one."""
    rng = random.Random("%s/%s/%d" % (SEED, method, trial))
    entries = _corpus(rng).entries_for_tag(rng.choice(TAGS))
    pool, source = _source(rng, method, entries)
    # A memory list hands out plain list iterators: iteration only has to
    # yield the entries.
    paged = method != "memory"
    hi = entries[-1].end + 2 if entries else 2
    for _probe in range(8):
        how = ("first" if method == "paged-list"
               else rng.choice(("first", "seek", "seek_after")))
        key = rng.randrange(-2, hi)
        opened = _opened(entries, how, key)
        cursor = _open(source, how, key)
        items = iter(cursor)
        page_id = cursor.page_id if paged else None
        for step in range(rng.randrange(1, len(entries) + 3)):
            requests, misses = _counters(pool)
            expected = opened[step] if step < len(opened) else None
            assert next(items, None) == expected
            assert pool.pinned_count == 0
            if paged:
                entered = expected is not None and cursor.page_id != page_id
                page_id = cursor.page_id
                now_requests, now_misses = _counters(pool)
                assert now_requests - requests == int(entered)
                assert now_misses - misses <= now_requests - requests
            if expected is None:
                break


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
@pytest.mark.parametrize("trial", range(6))
def test_kernels_give_the_oracle_pairs(algorithm, trial):
    rng = random.Random("%s/%s/%d" % (SEED, algorithm, trial))
    join, method = KERNELS[algorithm]
    corpus = _corpus(rng)
    pool = StorageContext(page_size=rng.choice((256, 512)),
                          buffer_pages=rng.choice((8, 64))).pool
    for a_tag in TAGS:
        for d_tag in TAGS:
            ancestors = corpus.entries_for_tag(a_tag)
            descendants = corpus.entries_for_tag(d_tag)
            a_side = BUILDERS[method](ancestors, pool, 1.0)
            d_side = BUILDERS[method](descendants, pool, 1.0)
            for parent_child in (False, True):
                expected = nested_loop_join(ancestors, descendants,
                                            parent_child)
                pairs, stats = join(a_side, d_side, parent_child)
                assert sort_pairs(pairs) == expected
                assert stats.pairs == len(expected)
                if algorithm in MEMORY_ANCESTORS:
                    memory_pairs, _ = join(MemoryElementList(ancestors),
                                           d_side, parent_child)
                    assert sort_pairs(memory_pairs) == expected
                assert pool.pinned_count == 0


def _inputs(algorithm, rng):
    join, method = KERNELS[algorithm]
    data = department_dataset(rng.randrange(600, 1200),
                              seed=rng.randrange(10 ** 6))
    pool = StorageContext(page_size=512, buffer_pages=32).pool
    return (join, pool, BUILDERS[method](data.ancestors, pool, 1.0),
            BUILDERS[method](data.descendants, pool, 1.0))


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_a_row_cap_of_k_trips_at_pair_k_plus_one(algorithm):
    rng = random.Random("%s/cap/%s" % (SEED, algorithm))
    join, pool, a_side, d_side = _inputs(algorithm, rng)
    _pairs, full = join(a_side, d_side, collect=False)
    assert full.pairs > 2
    cap = rng.randrange(0, full.pairs - 1)
    stats = JoinStats(runtime=QueryContext(row_cap=cap).start(pool))
    with pytest.raises(RowCapExceeded):
        join(a_side, d_side, collect=False, stats=stats)
    assert stats.pairs == cap + 1
    assert 0 < stats.elements_scanned < full.elements_scanned
    assert pool.pinned_count == 0


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_a_mid_join_quota_trip_flushes_the_scan_count(algorithm):
    rng = random.Random("%s/quota/%s" % (SEED, algorithm))
    join, pool, a_side, d_side = _inputs(algorithm, rng)
    before = pool.stats.requests
    _pairs, full = join(a_side, d_side, collect=False)
    requests = pool.stats.requests - before
    assert requests >= 16
    # Past the two first() descents, short of the last iteration's probes.
    budget = rng.randrange(requests // 4, requests // 2)
    stats = JoinStats(runtime=QueryContext(page_budget=budget).start(pool))
    with pytest.raises(PageQuotaExceeded):
        join(a_side, d_side, collect=False, stats=stats)
    assert 0 < stats.elements_scanned < full.elements_scanned
    assert pool.pinned_count == 0
