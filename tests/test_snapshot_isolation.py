"""Concurrent snapshot consistency (seeded property test).

Reader threads pin snapshots in the middle of a write storm and replay
their whole query surface — tags, per-tag entry sets, a structural join
and a session-engine path query — against a single-threaded oracle
database advanced to the same commit sequence.  Any MVCC defect — a
pre-image recorded late, a torn apply, a version chain pruned under a
live pin — shows up as a reader observing a state no commit ever
produced.

``CHAOS_SEED`` reproduces a CI failure locally; ``SNAPSHOT_TRIALS``
scales the number of seeded schedules (CI's concurrency-stress job runs
50).
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.core.api import structural_join
from repro.core.database import XmlDatabase
from repro.joins.base import sort_pairs
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.pages import RawPage
from repro.xmldata.dtd import DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.parser import serialize_document

SEED = int(os.environ.get("CHAOS_SEED", "20030305"))
TRIALS = int(os.environ.get("SNAPSHOT_TRIALS", "5"))

# A reader thread dying (e.g. a ChecksumError on a torn snapshot read)
# is a consistency violation, not a warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")

PAGE_SIZE = 512
BUFFER_PAGES = 32
READERS = 8
READS_PER_READER = 4


def generate_docs(rng, count=4):
    """(name, xml) pairs of seeded random department documents."""
    config = GeneratorConfig(mean_repeat=rng.uniform(1.5, 2.5),
                             recursion_decay=0.6,
                             max_depth=rng.randrange(8, 16))
    docs = []
    for index in range(count):
        document = XmlGenerator(DEPARTMENT_DTD, config,
                                seed=rng.randrange(10 ** 6)) \
            .generate(rng.randrange(100, 250))
        docs.append(("doc-%d" % index, serialize_document(document)))
    return docs


def observe(surface):
    """Everything a reader can see, in one comparable structure.

    ``surface`` is anything with the session query surface (an
    ``XmlDatabase`` oracle or a ``Session``): tags, entry sets, one
    structural join, and a path query through the surface's own engine.
    """
    tags = surface.tags()
    entries = {tag: tuple(surface.entries_for_tag(tag)) for tag in tags}
    join = None
    if "employee" in entries and "name" in entries:
        outcome = structural_join(list(entries["employee"]),
                                  list(entries["name"]),
                                  algorithm="xr-stack")
        join = tuple(sort_pairs(outcome.pairs))
    matches = tuple(sorted(
        (e.doc_id, e.start, e.end)
        for e in surface.query("//employee/name").matches))
    return {"tags": tuple(tags), "entries": entries,
            "join": join, "matches": matches}


def build_expectations(docs, make_db):
    """Oracle state per commit sequence: seq 1 = empty, seq 1+k = docs[:k]."""
    oracle = make_db("oracle")
    try:
        oracle.flush()
        assert oracle.commit_sequence == 1
        expected = {1: observe(oracle)}
        for index, (name, xml) in enumerate(docs):
            oracle.add_document(xml, name=name)
            oracle.flush()
            expected[index + 2] = observe(oracle)
        return expected
    finally:
        oracle.close()


def run_storm(db, docs, expected, trial):
    """Readers pin snapshots while the main thread commits the docs."""
    failures = []
    barrier = threading.Barrier(READERS + 1)

    def reader(index):
        rng = random.Random(SEED + 7919 * trial + index)
        barrier.wait()
        for _ in range(READS_PER_READER):
            with db.session() as session:
                sequence = session.sequence
                state = observe(session)
                if state != expected[sequence]:
                    failures.append((index, sequence))
                # The view must stay pinned even after more commits land.
                time.sleep(rng.uniform(0.0, 0.002))
                if observe(session) != expected[sequence]:
                    failures.append((index, sequence, "drifted"))

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(READERS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    for name, xml in docs:
        db.add_document(xml, name=name)
        db.flush()
    for thread in threads:
        thread.join()
    return failures


@pytest.mark.parametrize("trial", range(TRIALS))
def test_concurrent_snapshots_match_oracle(trial):
    rng = random.Random(SEED + 1000 * trial)
    docs = generate_docs(rng)

    def make_db(_label):
        return XmlDatabase.create(page_size=PAGE_SIZE,
                                  buffer_pages=BUFFER_PAGES)

    expected = build_expectations(docs, make_db)
    db = make_db("storm")
    try:
        db.flush()
        failures = run_storm(db, docs, expected, trial)
        assert not failures, failures[:5]
        assert db.commit_sequence == 1 + len(docs)
        # Every pin released: the version store must drain completely.
        versions = db._context.disk.versions
        assert versions.pin_count == 0
        assert versions.retained_images == 0
        # And the final live state is the full-prefix oracle state.
        with db.session(snapshot=False) as live:
            assert observe(live) == expected[1 + len(docs)]
    finally:
        db.close()


def test_concurrent_snapshots_match_oracle_file_backed(tmp_path):
    rng = random.Random(SEED)
    docs = generate_docs(rng, count=3)

    def make_db(label):
        return XmlDatabase.create(str(tmp_path / ("%s.db" % label)),
                                  page_size=PAGE_SIZE,
                                  buffer_pages=BUFFER_PAGES)

    expected = build_expectations(docs, make_db)
    db = make_db("storm")
    try:
        db.flush()
        failures = run_storm(db, docs, expected, trial=0)
        assert not failures, failures[:5]
        versions = db._context.disk.versions
        assert versions.pin_count == 0
        assert versions.retained_images == 0
    finally:
        db.close()


def test_buffer_pool_latch_contention_smoke():
    """Many threads hammer one pool; every read stays intact."""
    disk = InMemoryDisk(page_size=PAGE_SIZE)
    pool = BufferPool(disk, capacity=8)
    page_ids = []
    for index in range(32):
        page = pool.new_page(RawPage(index.to_bytes(8, "big")))
        pool.unpin(page)
        page_ids.append(page.page_id)
    pool.flush_all()

    errors = []
    barrier = threading.Barrier(8)

    def hammer(seed):
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(300):
            page_id = rng.choice(page_ids)
            page = pool.fetch(page_id)
            try:
                value = int.from_bytes(page.payload[:8], "big")
                if page_ids[value] != page_id:
                    errors.append((page_id, value))
            finally:
                pool.unpin(page)

    pool.reset_stats()
    threads = [threading.Thread(target=hammer, args=(SEED + i,))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside fetch and unpin
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    # Counters and pin accounting change only under the latch: a lost
    # update would show here.
    assert pool.stats.requests == 8 * 300
    assert pool.pinned_count == 0
    assert 1 <= pool.stats.max_pinned <= 8
    assert pool.latch_waits >= 0  # diagnostic counter, never negative

    assert BufferPool(disk, capacity=8).latch_waits == 0
