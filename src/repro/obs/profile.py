"""Per-query execution profiles: actual cost per operator, EXPLAIN ANALYZE.

The paper's headline comparison (Section 6.1) is *elements scanned versus
elements skipped*: XR-stack wins precisely because its index probes let it
leap over elements the merge baselines must touch.  A
:class:`QueryProfile` makes that measurable per query: the engine (and any
other join driver) wraps each operator in :meth:`QueryProfile.operator`,
which captures the deltas of the shared
:class:`~repro.joins.base.JoinStats` counters and the buffer pool's
logical page accounting across the operator's run — wall time, elements
scanned, output pairs, logical page requests (hits + misses), stab-list
pages read, and the XR-stack/B+ skip-probe counts.

``elements_skipped`` is derived per operator as
``max(0, input_a + input_d - elements_scanned)``: the entries present in
the operator's inputs that the join never examined.  It is a floor — index
probes charge each *produced* element to the scan counter, so an element
can be counted without being merged past — but a positive value is always
real skipping.

Profiles thread through the runtime: ``QueryContext(profile=...)`` (or
setting ``runtime.profile``) arms every join loop the context governs.
``PathQueryEngine.explain(path, analyze=True)`` runs the query with a
fresh profile and renders estimated-vs-actual side by side — the
EXPLAIN ANALYZE of this system.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OperatorProfile:
    """Actual measured cost of one executed operator.

    ``kind`` groups operators for rendering: ``"scan"`` (first-step element
    fetch), ``"join"`` (a forward structural join), ``"probe"`` (a reverse
    FindAncestors step) and ``"semi-join"`` / ``"filter"`` (predicates).
    ``tag`` names the index the operator probes (its descendant/target
    side), which is what ``pages_by_index`` aggregates on.
    """

    name: str
    kind: str = "join"
    algorithm: str = ""
    tag: str = ""
    input_a: int = 0
    input_d: int = 0
    rows_out: int = 0
    wall_seconds: float = 0.0
    elements_scanned: int = 0
    pairs: int = 0
    page_requests: int = 0
    page_hits: int = 0
    page_misses: int = 0
    stab_pages: int = 0
    ancestor_skips: int = 0
    descendant_skips: int = 0
    est_pairs: float = None

    @property
    def elements_skipped(self):
        """Input entries the operator provably never examined (floor).

        Meaningful only for join-family operators; scans and value
        filters touch every input without charging the scan counter, so
        they report 0 rather than a spurious full-input skip.
        """
        if self.kind in ("scan", "filter"):
            return 0
        return max(0, self.input_a + self.input_d - self.elements_scanned)

    @property
    def skip_probes(self):
        return self.ancestor_skips + self.descendant_skips

    def to_dict(self):
        out = {
            "name": self.name,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "tag": self.tag,
            "input_a": self.input_a,
            "input_d": self.input_d,
            "rows_out": self.rows_out,
            "wall_seconds": self.wall_seconds,
            "elements_scanned": self.elements_scanned,
            "elements_skipped": self.elements_skipped,
            "pairs": self.pairs,
            "page_requests": self.page_requests,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "stab_pages": self.stab_pages,
            "ancestor_skips": self.ancestor_skips,
            "descendant_skips": self.descendant_skips,
        }
        if self.est_pairs is not None:
            out["est_pairs"] = self.est_pairs
        return out

    def describe(self):
        parts = [
            "%d rows" % self.rows_out,
            "%d pairs" % self.pairs,
            "%d scanned" % self.elements_scanned,
        ]
        if self.elements_skipped:
            parts.append("%d skipped" % self.elements_skipped)
        parts.append("%d pages (%d hits + %d misses)"
                     % (self.page_requests, self.page_hits,
                        self.page_misses))
        if self.stab_pages:
            parts.append("%d stab pages" % self.stab_pages)
        if self.skip_probes:
            parts.append("skip probes a=%d d=%d"
                         % (self.ancestor_skips, self.descendant_skips))
        parts.append("%.3f ms" % (self.wall_seconds * 1e3))
        return ", ".join(parts)


class QueryProfile:
    """The actual execution cost of one query, operator by operator.

    Created empty, filled by instrumented join drivers via
    :meth:`operator`, stamped with query-level totals by the engine.
    """

    def __init__(self, path="", strategy=""):
        self.path = path
        self.strategy = strategy
        self.operators = []
        self.wall_seconds = 0.0
        self.page_requests = 0
        self.page_hits = 0
        self.page_misses = 0
        self.rows = 0

    # -- recording -------------------------------------------------------------

    @contextmanager
    def operator(self, name, kind="join", algorithm="", tag="",
                 input_a=0, input_d=0, stats=None, pool=None):
        """Measure one operator: yields its :class:`OperatorProfile`.

        ``stats`` is the run's shared :class:`~repro.joins.base.JoinStats`
        (deltas of its counters are attributed to this operator); ``pool``
        the buffer pool whose logical requests the operator charges.  The
        caller sets ``rows_out`` (and anything else) on the yielded object
        before the block exits.
        """
        op = OperatorProfile(name=name, kind=kind, algorithm=algorithm,
                             tag=tag, input_a=input_a, input_d=input_d)
        base = _CounterBase(stats, pool)
        started = time.perf_counter()
        try:
            yield op
        finally:
            op.wall_seconds = time.perf_counter() - started
            base.charge(op)
            self.operators.append(op)

    # -- aggregation -----------------------------------------------------------

    def total(self, attribute):
        """Sum one numeric attribute over every recorded operator."""
        return sum(getattr(op, attribute) for op in self.operators)

    @property
    def elements_scanned(self):
        return self.total("elements_scanned")

    @property
    def elements_skipped(self):
        return self.total("elements_skipped")

    @property
    def stab_pages(self):
        return self.total("stab_pages")

    def pages_by_index(self):
        """Logical page requests aggregated by the probed index's tag."""
        out = {}
        for op in self.operators:
            key = op.tag or op.name
            out[key] = out.get(key, 0) + op.page_requests
        return out

    def to_dict(self):
        return {
            "path": self.path,
            "strategy": self.strategy,
            "wall_seconds": self.wall_seconds,
            "page_requests": self.page_requests,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "rows": self.rows,
            "elements_scanned": self.elements_scanned,
            "elements_skipped": self.elements_skipped,
            "stab_pages": self.stab_pages,
            "pages_by_index": self.pages_by_index(),
            "operators": [op.to_dict() for op in self.operators],
        }

    def render(self):
        """A human-readable actuals report (the ANALYZE half of EXPLAIN)."""
        lines = ["profile for %s (strategy=%s)" % (self.path, self.strategy)]
        for op in self.operators:
            actual = op.describe()
            if op.est_pairs is not None:
                actual = "est ~%d pairs -> %s" % (round(op.est_pairs),
                                                  actual)
            lines.append("  %-36s %s" % (op.name, actual))
        lines.append(
            "  total: %d rows, %d pages (%d hits + %d misses), "
            "%d scanned, %d skipped, %.3f ms"
            % (self.rows, self.page_requests, self.page_hits,
               self.page_misses, self.elements_scanned,
               self.elements_skipped, self.wall_seconds * 1e3)
        )
        return "\n".join(lines)


class _CounterBase:
    """Baselines of the shared counters at operator start."""

    __slots__ = ("stats", "pool", "scanned", "pairs", "stab", "a_skips",
                 "d_skips", "hits", "misses")

    def __init__(self, stats, pool):
        self.stats = stats
        self.pool = pool
        if stats is not None:
            self.scanned = stats.elements_scanned
            self.pairs = stats.pairs
            self.stab = stats.stab_pages
            self.a_skips = stats.ancestor_skips
            self.d_skips = stats.descendant_skips
        if pool is not None:
            self.hits = pool.stats.hits
            self.misses = pool.stats.misses

    def charge(self, op):
        if self.stats is not None:
            op.elements_scanned = self.stats.elements_scanned - self.scanned
            op.pairs = self.stats.pairs - self.pairs
            op.stab_pages = self.stats.stab_pages - self.stab
            op.ancestor_skips = self.stats.ancestor_skips - self.a_skips
            op.descendant_skips = self.stats.descendant_skips - self.d_skips
        if self.pool is not None:
            op.page_hits = self.pool.stats.hits - self.hits
            op.page_misses = self.pool.stats.misses - self.misses
            op.page_requests = op.page_hits + op.page_misses
