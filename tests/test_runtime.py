"""Query-runtime guardrails: deadlines, cancellation, quotas.

The contract under test:

* guardrail trips raise their typed errors at *pin-free* checkpoints, so a
  cancelled or timed-out query never leaks a pinned buffer frame and the
  pool stays fully reusable;
* an unbounded descendant-heavy join over a 30k-element corpus is stopped
  within 2x its configured deadline;
* a query that exhausts its page quota raises, leaving no pin behind.

Admission (the slot bound, its queue and load shedding) is the server's
and is tested in ``tests/test_sessions.py::TestServer``.

The cancellation sweep is seeded: set ``CHAOS_SEED`` to reproduce.
"""

import os
import random
import time

import pytest

from repro.core.api import StorageContext, build_xr_tree, oracle_join, \
    structural_join
from repro.core.database import XmlDatabase
from repro.joins.registry import algorithm_names
from repro.query.runtime import (
    CancellationToken,
    DeadlineExceeded,
    PageQuotaExceeded,
    QueryCancelled,
    QueryContext,
    RowCapExceeded,
)
from repro.workloads import department_dataset

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))


class TripAfter(CancellationToken):
    """A token that reports cancelled after ``fuse`` observations."""

    __slots__ = ("_fuse",)

    def __init__(self, fuse):
        super().__init__()
        self._fuse = fuse

    @property
    def cancelled(self):
        if self._fuse <= 0:
            return True
        self._fuse -= 1
        return False


# -- QueryContext unit behaviour -----------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        QueryContext(deadline=0)
    with pytest.raises(ValueError):
        QueryContext(page_budget=0)
    with pytest.raises(ValueError):
        QueryContext(row_cap=-1)
    with pytest.raises(ValueError):
        QueryContext(check_every=0)


def test_token_cancels_at_next_tick():
    token = CancellationToken()
    ctx = QueryContext(token=token).start()
    ctx.tick()
    token.cancel("client went away")
    with pytest.raises(QueryCancelled, match="client went away"):
        ctx.tick()


def test_deadline_checked_every_n_ticks():
    ctx = QueryContext(deadline=0.005, check_every=4).start()
    time.sleep(0.01)
    ctx.tick()  # ticks 1-3 skip the clock
    ctx.tick()
    ctx.tick()
    with pytest.raises(DeadlineExceeded):
        ctx.tick()


def test_check_forces_the_clock():
    ctx = QueryContext(deadline=0.005, check_every=1000).start()
    time.sleep(0.01)
    with pytest.raises(DeadlineExceeded):
        ctx.check()


def test_row_cap_counts_emitted_pairs():
    ctx = QueryContext(row_cap=2).start()
    ctx.note_pair()
    ctx.note_pair()
    with pytest.raises(RowCapExceeded):
        ctx.note_pair()


def test_page_budget_counts_logical_requests():
    context = StorageContext()
    tree = build_xr_tree(department_dataset(300, seed=SEED).ancestors,
                         context.pool)
    ctx = QueryContext(page_budget=3, check_every=1).start(context.pool)
    with pytest.raises(PageQuotaExceeded):
        for _ in range(100):
            list(tree.items())
            ctx.tick()
    assert ctx.pages_used > 3


def test_idle_context_never_trips():
    ctx = QueryContext().start()
    for _ in range(10000):
        ctx.tick()
    assert ctx.ticks == 10000
    assert "unlimited" in ctx.describe()


# -- deadline and cancellation through real joins ------------------------------


class CheckpointClock:
    """Stands in for the runtime module's ``time``: virtual time advances
    by a fixed cost per checkpoint the governed query has passed, so how
    far a join outlives its deadline is a count of checkpoints, not a race
    against whatever else the host is running."""

    def __init__(self, context, seconds_per_checkpoint):
        self.context = context
        self.seconds_per_checkpoint = seconds_per_checkpoint

    def monotonic(self):
        return self.context.ticks * self.seconds_per_checkpoint


def test_deadline_stops_30k_join_within_twice_the_budget(monkeypatch):
    """Acceptance: an unbounded descendant-heavy join over a 30k-element
    corpus is cancelled within 2x the configured deadline, leaking no
    pinned pages, and the pool remains usable.

    The join passes ~11.7k checkpoints when left alone; at 25 us each the
    50 ms deadline covers the first 2000, and the clock is consulted every
    ``check_every`` of them."""
    data = department_dataset(target_elements=30000, seed=SEED)
    context = StorageContext()
    atree = build_xr_tree(data.ancestors, context.pool)
    dtree = build_xr_tree(data.descendants, context.pool)
    deadline = 0.05
    runtime = QueryContext(deadline=deadline, check_every=16)
    clock = CheckpointClock(runtime, seconds_per_checkpoint=25e-6)
    monkeypatch.setattr("repro.query.runtime.time", clock)
    with pytest.raises(DeadlineExceeded):
        structural_join(atree, dtree, context=context, runtime=runtime)
    budget = round(deadline / clock.seconds_per_checkpoint)
    assert budget <= runtime.ticks < budget + runtime.check_every, (
        "join passed %d checkpoints on a budget of %d"
        % (runtime.ticks, budget)
    )
    assert context.pool.pinned_count == 0, "cancelled join leaked pins"
    # The pool is still fully usable for the next query.
    small = department_dataset(400, seed=SEED + 1)
    outcome = structural_join(small.ancestors, small.descendants,
                              context=context)
    assert outcome.pairs == oracle_join(small.ancestors, small.descendants)


def test_cancellation_sweep_releases_all_pins():
    """Property sweep: whatever checkpoint a cancellation lands on, the
    join raises QueryCancelled with zero pinned frames left behind, and an
    immediate un-cancelled rerun returns the oracle answer."""
    rng = random.Random(SEED)
    data = department_dataset(800, seed=SEED)
    expected = oracle_join(data.ancestors, data.descendants)
    for algorithm in ("xr-stack", "stack-tree", "b+"):
        context = StorageContext()
        for trial in range(4):
            fuse = rng.randrange(0, 200)
            runtime = QueryContext(token=TripAfter(fuse), check_every=1)
            try:
                outcome = structural_join(data.ancestors, data.descendants,
                                          algorithm=algorithm,
                                          context=context, runtime=runtime)
            except QueryCancelled:
                pass
            else:
                assert outcome.pairs == expected
            assert context.pool.pinned_count == 0, (
                "%s leaked pins at fuse %d (trial %d)"
                % (algorithm, fuse, trial)
            )
        rerun = structural_join(data.ancestors, data.descendants,
                                algorithm=algorithm, context=context)
        assert rerun.pairs == expected


@pytest.mark.parametrize("algorithm", algorithm_names())
class TestEveryAlgorithmHonoursGuardrails:
    """Every registered kernel ticks its runtime: a page quota and a
    cancellation trip mid-join and leave no frame pinned."""

    @staticmethod
    def _trips(algorithm, runtime, error):
        data = department_dataset(800, seed=SEED)
        context = StorageContext()
        with pytest.raises(error):
            structural_join(data.ancestors, data.descendants,
                            algorithm=algorithm, context=context,
                            runtime=runtime)
        assert context.pool.pinned_count == 0

    def test_page_quota(self, algorithm):
        self._trips(algorithm, QueryContext(page_budget=3),
                    PageQuotaExceeded)

    def test_cancellation(self, algorithm):
        token = CancellationToken()
        token.cancel()
        self._trips(algorithm, QueryContext(token=token), QueryCancelled)


def test_row_cap_trips_through_join_sink():
    data = department_dataset(800, seed=SEED)
    full = structural_join(data.ancestors, data.descendants)
    assert full.pair_count > 5
    with pytest.raises(RowCapExceeded):
        structural_join(data.ancestors, data.descendants,
                        runtime=QueryContext(row_cap=5))


# -- page quota in the query engine -------------------------------------------


def _nested_db():
    # 240 titles: the title tree has two levels, so the query requests
    # several pages.
    xml = ("<lib>"
           + "".join("<shelf>" + "<book><title/></book>" * 6 + "</shelf>"
                     for _ in range(40))
           + "</lib>")
    db = XmlDatabase.create()
    db.add_document(xml)
    return db


def test_tripped_page_quota_raises_and_releases_pins():
    """A page quota is a bound, not a signal to retry on another plan: the
    trip surfaces, no frame stays pinned, and the next query answers."""
    db = _nested_db()
    shelves = db.entries_for_tag("shelf")
    titles = db.entries_for_tag("title")
    expected = sorted({d.start for _a, d in oracle_join(shelves, titles)})
    probe = QueryContext(page_budget=10 ** 9, check_every=1)
    db.query("//shelf//title", runtime=probe)
    assert probe.pages_used > 1
    runtime = QueryContext(page_budget=probe.pages_used - 1, check_every=1)
    with pytest.raises(PageQuotaExceeded):
        db.query("//shelf//title", runtime=runtime)
    assert db._context.pool.pinned_count == 0
    assert db.query("//shelf//title").starts() == expected


def test_max_pinned_high_water_mark_surfaces():
    db = _nested_db()
    db.query("//shelf//title")
    stats = db.index_stats
    assert stats.max_pinned >= 1
    snapshot = stats.snapshot()
    assert snapshot.max_pinned == stats.max_pinned
