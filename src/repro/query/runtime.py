"""Query-runtime guardrails: deadlines, cancellation, budgets, row caps.

The paper's cost model prices every index operation in I/Os
(``O(log_F N + R)`` for FindAncestors, Theorem 4), which makes page
requests the natural budget unit for an entire query: a
:class:`QueryContext` carries a wall-clock deadline, a cooperative
:class:`CancellationToken`, a buffer-pool page quota and a result-row cap,
and the join loops call back into it at *pin-free* checkpoints so a tripped
guardrail can never leak a pinned buffer frame.

The hook is :class:`~repro.joins.base.JoinStats`: every join algorithm
already threads one stats object through its hot loop, so attaching a
context to the stats (``stats.runtime = context``) arms every loop at once.
``JoinStats.checkpoint()`` — called once per loop iteration, at the top,
where no page is pinned — forwards to :meth:`QueryContext.tick`;
``JoinSink.emit`` charges every output pair against the row cap.

Trip semantics:

* a trip raises a typed subclass of :class:`QueryRuntimeError` —
  :class:`QueryCancelled`, :class:`DeadlineExceeded`,
  :class:`PageQuotaExceeded` or :class:`RowCapExceeded` — out of the
  query: a page quota of B is a bound of B requests, not a signal to try
  another plan;
* cancellation and budget checks are O(1) integer comparisons on every
  tick; the deadline reads the clock only every ``check_every`` ticks, so
  an idle context adds almost nothing to a join's per-element cost
  (bounded by ``benchmarks/bench_runtime_overhead.py``).
"""

import time


class QueryRuntimeError(Exception):
    """Base class for guardrail trips; ``reason`` names the guardrail."""

    reason = "runtime"


class QueryCancelled(QueryRuntimeError):
    """The query's :class:`CancellationToken` was cancelled."""

    reason = "cancelled"


class DeadlineExceeded(QueryRuntimeError):
    """The query ran past its wall-clock deadline."""

    reason = "deadline"


class PageQuotaExceeded(QueryRuntimeError):
    """The query used more buffer-pool page requests than its quota."""

    reason = "page-quota"


class RowCapExceeded(QueryRuntimeError):
    """The query emitted more output rows than its cap allows."""

    reason = "row-cap"


class QueryRejected(QueryRuntimeError):
    """The query was never admitted: a :class:`~repro.server.Server`'s
    queue was full, or its slot wait outlived the call's timeout."""

    reason = "rejected"


class CancellationToken:
    """A cooperative cancellation flag shared between caller and query.

    The caller keeps a reference and calls :meth:`cancel` (from a signal
    handler, another thread, ...);
    the running query observes the flag at its next checkpoint and raises
    :class:`QueryCancelled`.

    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel("client disconnected")
    >>> token.cancelled
    True
    """

    __slots__ = ("_cancelled", "_message")

    def __init__(self):
        self._cancelled = False
        self._message = None

    def cancel(self, message="cancelled"):
        """Request cancellation (idempotent; the first message wins)."""
        if not self._cancelled:
            self._message = message
            self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled

    @property
    def message(self):
        return self._message


#: How many checkpoint ticks pass between clock reads by default.  Token
#: and budget checks are plain integer comparisons and run on every tick.
DEFAULT_CHECK_EVERY = 32


class QueryContext:
    """Per-query guardrails: deadline, cancellation, page quota, row cap.

    All limits are optional; a context with none set is *idle* and adds
    only a counter increment per checkpoint.  One context governs one
    query evaluation — create a fresh one per query (a
    :class:`~repro.server.Server` call with a ``timeout`` and no context
    gets one with that deadline).

    ``deadline`` is in wall-clock seconds from :meth:`start`.
    ``page_budget`` bounds *logical* page requests (buffer-pool hits plus
    misses) — the deterministic superset of the paper's page-miss cost
    unit, so tests and quotas behave identically whatever the pool size.
    ``row_cap`` bounds emitted join output pairs.

    ``profile`` optionally attaches a :class:`~repro.obs.profile.\
    QueryProfile`: every join driver governed by this context records its
    per-operator actuals (wall time, logical page fetches, stab-list
    pages, skip counts) there — the mechanism behind
    ``explain(path, analyze=True)``.  The context itself never touches
    the profile; it only carries it to the engine.
    """

    def __init__(self, deadline=None, page_budget=None, row_cap=None,
                 token=None, check_every=DEFAULT_CHECK_EVERY,
                 profile=None):
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if page_budget is not None and page_budget < 1:
            raise ValueError("page budget must be at least 1")
        if row_cap is not None and row_cap < 0:
            raise ValueError("row cap must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be at least 1")
        self.deadline = deadline
        self.page_budget = page_budget
        self.row_cap = row_cap
        self.token = token
        self.check_every = check_every
        self.profile = profile
        self._pool = None
        self._base_requests = 0
        self._deadline_at = None
        self._started_at = None
        self._ticks = 0
        self._since_clock = 0
        self._rows = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self, pool=None):
        """Arm the context: start the deadline clock, bind the pool.

        Idempotent per query: calling ``start`` again restarts the clock
        and rebases the page accounting (a context must not be shared by
        two concurrent queries).  Returns ``self``.
        """
        self._started_at = time.monotonic()
        if self.deadline is not None:
            self._deadline_at = self._started_at + self.deadline
        self._ticks = 0
        self._since_clock = 0
        self._rows = 0
        if pool is not None:
            self.bind_pool(pool)
        return self

    def bind_pool(self, pool):
        """Charge this pool's page requests against the quota from now on."""
        self._pool = pool
        self._base_requests = pool.stats.requests

    # -- checkpoints ---------------------------------------------------------

    def tick(self):
        """One pin-free checkpoint: cheap checks now, the clock every
        ``check_every`` ticks.  Raises the matching guardrail error."""
        self._ticks += 1
        token = self.token
        if token is not None and token.cancelled:
            raise QueryCancelled(token.message or "query cancelled")
        if self.page_budget is not None and self._pool is not None:
            used = self._pool.stats.requests - self._base_requests
            if used > self.page_budget:
                raise PageQuotaExceeded(
                    "page quota exhausted: %d requests > budget %d"
                    % (used, self.page_budget)
                )
        if self._deadline_at is not None:
            self._since_clock += 1
            if self._since_clock >= self.check_every:
                self._since_clock = 0
                if time.monotonic() >= self._deadline_at:
                    raise DeadlineExceeded(
                        "deadline of %.3fs exceeded" % self.deadline
                    )

    def check(self):
        """A full checkpoint (clock included), for non-loop call sites."""
        self._since_clock = self.check_every
        self.tick()

    def note_pair(self, count=1):
        """Charge ``count`` emitted output rows against the cap."""
        self._rows += count
        if self.row_cap is not None and self._rows > self.row_cap:
            raise RowCapExceeded(
                "row cap exceeded: more than %d output pairs" % self.row_cap
            )

    # -- observability -------------------------------------------------------

    @property
    def ticks(self):
        """Checkpoints passed so far."""
        return self._ticks

    @property
    def pages_used(self):
        """Logical page requests charged so far."""
        if self._pool is None:
            return 0
        return self._pool.stats.requests - self._base_requests

    @property
    def elapsed_seconds(self):
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def describe(self):
        """One-line human summary of limits and consumption."""
        limits = []
        if self.deadline is not None:
            limits.append("deadline=%.3fs" % self.deadline)
        if self.page_budget is not None:
            limits.append("page_budget=%d" % self.page_budget)
        if self.row_cap is not None:
            limits.append("row_cap=%d" % self.row_cap)
        if self.token is not None:
            limits.append("token=%s"
                          % ("cancelled" if self.token.cancelled else "armed"))
        return "QueryContext(%s; pages=%d rows=%d elapsed=%.3fs)" % (
            ", ".join(limits) or "unlimited", self.pages_used,
            self._rows, self.elapsed_seconds,
        )
