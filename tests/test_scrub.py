"""Integrity-scrubber sweep: injected bit-flips, quarantine, rebuild.

A seeded sweep flips random bits in persisted index pages (silent media
corruption, injected through ``FaultInjectingDisk.peek``/``poke``) and
checks the robustness contract end to end:

* the scrubber detects **every** injected flip (CRC-32 catches any
  single-bit change) and quarantines the owning structure;
* queries against a quarantined index fail fast with the typed
  :class:`IndexQuarantinedError` — never a raw mid-join checksum error;
* without a scrub, a mid-join :class:`ChecksumError` is wrapped into
  :class:`QueryError` carrying the query text and the failing tag;
* a quarantined XR-tree rebuilds from its surviving leaf records, passes
  ``check_xrtree``, and post-rebuild query results match the oracle join.

Set ``CHAOS_SEED`` to reproduce a CI failure locally.
"""

import os
import random

import pytest

from repro.core.api import oracle_join
from repro.core.database import XmlDatabase
from repro.query.engine import QueryError
from repro.server import Server
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.errors import ChecksumError
from repro.storage.faults import FaultInjectingDisk
from repro.storage.scrub import IndexQuarantinedError

SEED = int(os.environ.get("CHAOS_SEED", "20030306"))

PAGE_SIZE = 512
BUFFER_PAGES = 32

#: Enough ``item`` elements that the tag's XR-tree has internal nodes at
#: 512-byte pages (leaves hold ~20 entries), so flips can target either
#: tree level.
ITEMS = 120

XML = ("<r>" + "<item><x/></item>" * ITEMS + "</r>")


def _build_db():
    disk = FaultInjectingDisk(InMemoryDisk(PAGE_SIZE))
    db = XmlDatabase.create(disk=disk, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES)
    db.add_document(XML)
    db.flush()
    return db, disk


def _pages_by_type(disk, page_ids):
    """Split a tree's reachable pages into internal and leaf/other ids."""
    from repro.indexes.xrtree.pages import XRInternalPage, XRLeafPage

    pool = BufferPool(disk, capacity=BUFFER_PAGES)
    internal, leaves = [], []
    for page_id in page_ids:
        with pool.pinned(page_id) as page:
            if isinstance(page, XRInternalPage):
                internal.append(page_id)
            elif isinstance(page, XRLeafPage):
                leaves.append(page_id)
    return internal, leaves


def test_clean_database_scrubs_clean():
    db, _disk = _build_db()
    report = db.scrub()
    assert report.cycle_complete
    assert not report.corrupt and not report.quarantined
    assert set(report.clean) >= {"tag:r", "tag:item", "tag:x"}


def test_scrubber_detects_every_injected_bit_flip():
    """100% detection: any single flipped bit quarantines its structure."""
    rng = random.Random(SEED)
    for trial in range(8):
        db, disk = _build_db()
        name = rng.choice(["tag:item", "tag:x", "tag:r"])
        pages = db.scrubber.pages_of(name)
        assert pages, "tree %s has no pages" % name
        page_id = rng.choice(pages)
        disk.flip_bit(page_id, rng.randrange(PAGE_SIZE * 8))
        report = db.scrub()
        assert name in report.corrupt, (
            "trial %d: flip in page %d of %s went undetected"
            % (trial, page_id, name)
        )
        assert db.scrubber.is_quarantined(name)
        # A later cycle skips the quarantined entry instead of re-reading.
        again = db.scrub()
        assert name in again.skipped and name not in again.corrupt
        db.close()


def test_quarantined_index_fails_fast_with_typed_error():
    db, disk = _build_db()
    page_id = db.scrubber.pages_of("tag:item")[0]
    disk.flip_bit(page_id, 9)
    db.scrub()
    with pytest.raises(IndexQuarantinedError) as excinfo:
        db.query("//item//x")
    assert excinfo.value.name == "tag:item"
    assert not isinstance(excinfo.value, ChecksumError)
    with pytest.raises(IndexQuarantinedError):
        db.entries_for_tag("item")
    # Snapshot sessions and the server load trees through the same path.
    with db.session() as session:
        with pytest.raises(IndexQuarantinedError) as excinfo:
            session.query("//item//x")
        assert excinfo.value.name == "tag:item"
        assert len(session.query("//r//x").matches) == ITEMS
    with Server(db) as server:
        with pytest.raises(IndexQuarantinedError):
            server.query("//item//x")
        assert len(server.query("//r//x").matches) == ITEMS
    # Untouched indexes keep working.
    assert len(db.query("//r//x").matches) == ITEMS


def test_unscrubbed_checksum_error_is_wrapped_with_query_context():
    """Satellite: a mid-join ChecksumError surfaces as QueryError with the
    query text and the failing index's tag attached."""
    db, disk = _build_db()
    for page_id in db.scrubber.pages_of("tag:item"):
        disk.flip_bit(page_id, 3)
    db.close()  # drop the warm pool so the corrupt pages are re-read
    reopened = XmlDatabase.open(disk=disk, page_size=PAGE_SIZE,
                                buffer_pages=BUFFER_PAGES)
    with pytest.raises(QueryError) as excinfo:
        reopened.query("//item//x")
    assert excinfo.value.index_name == "item"
    assert excinfo.value.query == "//item//x"
    assert isinstance(excinfo.value.__cause__, ChecksumError)


def test_rebuild_after_internal_corruption_matches_oracle():
    """An internal-page flip is lossless: every leaf record survives, and
    post-rebuild query results equal the oracle join."""
    db, disk = _build_db()
    items = db.entries_for_tag("item")
    xs = db.entries_for_tag("x")
    expected = sorted({d.start for _a, d in oracle_join(items, xs)})
    internal, _leaves = _pages_by_type(disk, db.scrubber.pages_of("tag:item"))
    assert internal, "expected an internal level at this corpus size"
    disk.flip_bit(internal[0], 40)
    report = db.scrub()
    assert "tag:item" in report.quarantined
    result = db.rebuild_index("item")
    assert result.verified
    assert result.salvaged == ITEMS
    assert not db.scrubber.is_quarantined("tag:item")
    assert db.scrub().corrupt == []
    assert db.query("//item//x").starts() == expected


def test_rebuild_after_leaf_corruption_salvages_survivors():
    rng = random.Random(SEED + 1)
    db, disk = _build_db()
    _internal, leaves = _pages_by_type(disk, db.scrubber.pages_of("tag:item"))
    assert len(leaves) > 1
    disk.flip_bit(rng.choice(leaves), rng.randrange(PAGE_SIZE * 8))
    assert "tag:item" in db.scrub().quarantined
    result = db.rebuild_index("item")
    assert result.verified
    assert result.lost_pages >= 1
    assert 0 < result.salvaged < ITEMS
    assert db.element_count("item") == result.salvaged
    # The rebuilt tree is internally consistent and queryable; every
    # surviving item still finds its x descendant.
    assert db.verify() >= 1
    matches = db.query("//item//x").matches
    assert len(matches) == result.salvaged


def test_scrub_budget_makes_incremental_progress():
    db, _disk = _build_db()
    entries = len(db.scrubber._catalog.names())
    steps = 0
    checked = 0
    while True:
        report = db.scrub(io_budget=2)
        steps += 1
        checked += report.entries_checked
        if report.cycle_complete:
            break
        assert steps < 100
    assert checked == entries
    assert steps > 1, "budget of 2 pages should split the cycle"
