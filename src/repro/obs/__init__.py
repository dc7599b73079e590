"""Unified observability: tracing, metrics, and query profiles.

Three pillars, one subsystem (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — a low-overhead structured :class:`Tracer`
  (query → plan → join operator → page fetch spans/events) in a
  bounded ring with JSONL export;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with a Prometheus-style exposition;
* :mod:`repro.obs.profile` — per-query :class:`QueryProfile` actuals
  behind ``EXPLAIN ANALYZE``.

:class:`Observability` is the per-database hub wiring the three together:
it owns one tracer (disabled by default — the hot path pays a predicate
check), one registry pre-seeded with the query-level instruments, and a
bounded slow-query log fed by :meth:`Observability.observe_query`, which
the query engine calls once per evaluation.

The cluster-wide plane builds on the hubs:

* :mod:`repro.obs.ops` — per-node ``/metrics`` / ``/healthz`` / ``/varz``
  HTTP endpoints (:class:`OpsServer`), merged across nodes by
  ``python -m repro.obs.aggregate``;
* :func:`trace_context` / :func:`new_trace_id` — a thread-local trace id
  (plus attempt number and cross-node parent link) stamped onto every
  record any tracer emits while the context is active, carried across
  processes by the ``repro.net`` v2 frame protocol;
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` bounded on-disk
  ring, dumped into post-mortem bundles on failover and rendered by
  ``python -m repro.obs.postmortem``.
"""

import time
from collections import deque

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_PAGE_IO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.profile import OperatorProfile, QueryProfile
from repro.obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Tracer,
    current_trace_id,
    new_trace_id,
    trace_context,
)

#: Slow-query log entries kept (oldest evicted first).
SLOW_LOG_CAPACITY = 128


class Observability:
    """One database's tracer, metrics registry and slow-query log.

    ``slow_query_seconds`` is the slow-log threshold (None disables the
    log; ``0.0`` logs every query).  The tracer starts disabled; call
    ``hub.tracer.enable()`` (or pass an enabled one) to start recording.
    ``node_id`` names this hub in cluster-wide output: it is stamped on
    every trace record (schema v2) and identifies the node in flight
    bundles and aggregated metrics.
    """

    def __init__(self, tracer=None, metrics=None, slow_query_seconds=None,
                 node_id=None):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if node_id is not None:
            self.tracer.node_id = node_id
        self.slow_query_seconds = slow_query_seconds
        self._slow_queries = deque(maxlen=SLOW_LOG_CAPACITY)
        m = self.metrics
        self._queries = m.counter(
            "repro_queries_total", "Queries evaluated")
        self._errors = m.counter(
            "repro_query_errors_total", "Queries that raised")
        self._rows = m.counter(
            "repro_query_rows_total", "Result rows returned")
        self._slow = m.counter(
            "repro_slow_queries_total", "Queries over the slow threshold")
        self._seconds = m.histogram(
            "repro_query_seconds", "Query wall time (seconds)",
            buckets=DEFAULT_LATENCY_BUCKETS)
        self._pages = m.histogram(
            "repro_query_pages",
            "Logical page requests (hits + misses) per query",
            buckets=DEFAULT_PAGE_IO_BUCKETS)

    # -- feeding ---------------------------------------------------------------

    def observe_query(self, path, seconds, pages, rows, error=None):
        """Record one finished (or failed) query evaluation."""
        self._queries.inc()
        if error is not None:
            self._errors.inc()
        self._rows.inc(rows)
        self._seconds.observe(seconds)
        self._pages.observe(pages)
        threshold = self.slow_query_seconds
        if threshold is not None and seconds >= threshold:
            self._slow.inc()
            self._slow_queries.append({
                "path": str(path),
                "seconds": seconds,
                "pages": pages,
                "rows": rows,
                "error": error,
                "p99_seconds": self._seconds.quantile(0.99),
                "logged_at": time.time(),
            })

    # -- reading ---------------------------------------------------------------

    @property
    def node_id(self):
        """This hub's cluster-wide node name (None for standalone use)."""
        return self.tracer.node_id

    def query_quantiles(self):
        """Estimated p50/p95/p99 query latency from the histogram buckets.

        Values are ``None`` until at least one query has been observed.
        """
        return {
            "p50_seconds": self._seconds.quantile(0.50),
            "p95_seconds": self._seconds.quantile(0.95),
            "p99_seconds": self._seconds.quantile(0.99),
        }

    def slow_queries(self):
        """The retained slow-query entries, oldest first (list of dicts)."""
        return list(self._slow_queries)

    def snapshot(self):
        """The registry snapshot (collectors refreshed)."""
        return self.metrics.snapshot()

    def render_prometheus(self):
        return self.metrics.render_prometheus()


from repro.obs.flight import FlightRecorder      # noqa: E402
from repro.obs.metrics import parse_exposition   # noqa: E402
from repro.obs.ops import OpsError, OpsServer    # noqa: E402

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PAGE_IO_BUCKETS",
    "DEFAULT_TRACE_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observability",
    "OperatorProfile",
    "OpsError",
    "OpsServer",
    "QueryProfile",
    "SLOW_LOG_CAPACITY",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "current_trace_id",
    "new_trace_id",
    "parse_exposition",
    "trace_context",
]
