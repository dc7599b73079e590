"""A metrics registry: named counters, gauges and fixed-bucket histograms.

Before this module the system's counters were per-subsystem islands —
``BufferStats`` on the pool, ``IndexManagerStats`` on the handle cache,
``ServerStats`` on the server, recovery and scrub reports on their
owners — each with its own field names and no single place to read them
all.  :class:`MetricsRegistry` is that place: one namespace of named
instruments plus *collectors* (pull callbacks that refresh gauges from the
existing stats objects at snapshot time), so the islands keep their cheap
in-place increments and the registry pays only at read time.

Three instrument kinds, Prometheus-shaped:

* :class:`Counter` — a monotonically increasing total (``inc``);
* :class:`Gauge` — a point-in-time value (``set``);
* :class:`Histogram` — observations bucketed by fixed upper edges
  (cumulative ``le`` semantics: an observation lands in every bucket
  whose edge is >= the value, plus the implicit ``+Inf``).

``snapshot()`` returns one plain dict (JSON-friendly);
``render_prometheus()`` emits the text exposition format, so a scrape
endpoint is one ``write()`` away.
"""

import math
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency bucket edges in seconds (sub-millisecond to seconds).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default logical page-I/O bucket edges (requests per query).
DEFAULT_PAGE_IO_BUCKETS = (4, 16, 64, 256, 1024, 4096, 16384, 65536)


class MetricsError(Exception):
    """Registry misuse: bad names, kind conflicts, bad bucket edges."""


class Counter:
    """A monotonically increasing total.

    Safe to increment from any thread: concurrent server callers bump
    the same query counters, and ``x += n`` on a plain attribute
    is not atomic under the interpreter.
    """

    kind = "counter"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise MetricsError("counter %r cannot decrease" % self.name)
        with self._lock:
            self.value += amount

    def snapshot_value(self):
        return self.value


class Gauge:
    """A point-in-time value (settable both ways, thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def dec(self, amount=1):
        with self._lock:
            self.value -= amount

    def snapshot_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with cumulative ``le`` semantics.

    ``buckets`` are the finite upper edges, strictly ascending; an
    implicit ``+Inf`` bucket catches the rest.  ``bucket_counts`` are
    *per-bucket* (non-cumulative) counts, one per finite edge plus the
    overflow slot; ``cumulative()`` derives the Prometheus view.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count",
                 "_lock")

    def __init__(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS):
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise MetricsError("histogram %r needs at least one bucket"
                               % name)
        if any(earlier >= later
               for earlier, later in zip(edges, edges[1:])):
            raise MetricsError(
                "histogram %r bucket edges must be strictly ascending: %r"
                % (name, edges)
            )
        if any(math.isinf(edge) or math.isnan(edge) for edge in edges):
            raise MetricsError(
                "histogram %r edges must be finite (the +Inf bucket is "
                "implicit)" % name
            )
        self.name = name
        self.help = help
        self.buckets = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value):
        """Record one observation (``value <= edge`` lands in that bucket).

        Thread-safe: concurrent server callers observe into the same
        latency histograms.
        """
        with self._lock:
            self.sum += value
            self.count += 1
            for index, edge in enumerate(self.buckets):
                if value <= edge:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    def cumulative(self):
        """``[(upper_edge, cumulative_count), ...]`` ending with +Inf."""
        running = 0
        out = []
        for edge, count in zip(self.buckets, self.bucket_counts):
            running += count
            out.append((edge, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q):
        """Estimate the ``q``-quantile (``0 < q <= 1``) by linear
        interpolation within the containing bucket — the standard
        Prometheus ``histogram_quantile`` estimate, computed locally.

        Returns None with no observations.  A quantile landing in the
        overflow (+Inf) bucket returns the largest finite edge — the
        honest answer is "at least this much".
        """
        if not 0.0 < q <= 1.0:
            raise MetricsError("quantile %r outside (0, 1]" % (q,))
        with self._lock:
            total = self.count
            if total == 0:
                return None
            rank = q * total
            running = 0
            lower = 0.0
            for edge, count in zip(self.buckets, self.bucket_counts):
                if count and running + count >= rank:
                    fraction = (rank - running) / count
                    return lower + (edge - lower) * fraction
                running += count
                lower = edge
            return self.buckets[-1]

    def snapshot_value(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [[edge, count] for edge, count in self.cumulative()],
        }


class MetricsRegistry:
    """One namespace of instruments plus pull-time collectors.

    ``counter``/``gauge``/``histogram`` get-or-create by name (re-requesting
    an existing name returns the same instrument; a kind conflict raises).
    ``register_collector(fn)`` adds a callback invoked with the registry at
    the start of every :meth:`snapshot` / :meth:`render_prometheus`, which
    is how existing stats objects are absorbed without rewriting their
    increment sites.  :meth:`mirror` is the declarative form: a spec of
    ``(metric_name, stats_key, help)`` rows refreshed from one stats
    object, with each mirrored name **claimed** by its collector — two
    collectors claiming the same name is a wiring bug (one would silently
    overwrite the other at every snapshot) and raises.
    """

    def __init__(self):
        self._instruments = {}
        self._collectors = []
        self._owners = {}
        self._lock = threading.Lock()

    # -- instrument creation ---------------------------------------------------

    def _get_or_create(self, cls, name, help, **options):
        if not _NAME_RE.match(name or ""):
            raise MetricsError("invalid metric name %r" % (name,))
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is not None:
                if not isinstance(instrument, cls):
                    raise MetricsError(
                        "metric %r already registered as a %s"
                        % (name, instrument.kind)
                    )
                return instrument
            instrument = cls(name, help, **options)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name, help=""):
        return self._get_or_create(Counter, name, help)

    def gauge(self, name, help=""):
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS):
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def register_collector(self, fn, owns=(), name=None):
        """Add a pull callback ``fn(registry)`` run before every snapshot.

        ``owns`` lists metric names this collector exclusively refreshes;
        a second collector claiming an owned name raises (see
        :meth:`claim`).  ``name`` labels the collector in ownership
        errors and :meth:`collector_owners`.
        """
        owner = name or getattr(fn, "__qualname__", repr(fn))
        for metric in owns:
            self.claim(metric, owner)
        self._collectors.append(fn)
        return fn

    def claim(self, metric_name, owner):
        """Record ``owner`` as the sole refresher of ``metric_name``.

        Idempotent for the same owner; a different owner raises
        :class:`MetricsError` — the hygiene guarantee behind "no metric
        is fed by two collectors".
        """
        with self._lock:
            holder = self._owners.setdefault(metric_name, owner)
        if holder != owner:
            raise MetricsError(
                "metric %r is already refreshed by collector %r "
                "(refusing a second claim by %r)"
                % (metric_name, holder, owner))

    def collector_owners(self):
        """``{metric_name: collector_name}`` for every claimed metric."""
        with self._lock:
            return dict(self._owners)

    def mirror(self, stats, spec, name=None):
        """Absorb a stats object into pull-refreshed gauges.

        ``stats`` is the object (or a zero-argument callable returning
        the object) whose attributes — or keys, when it is a dict — hold
        the live counters; ``spec`` is an iterable of
        ``(metric_name, stats_key, help)`` rows.  Creates one gauge per
        row, claims each name for this collector, and registers a
        collector copying ``stats`` into the gauges at snapshot time.
        Returns the collector function (useful for tests).
        """
        rows = [(metric, key, help_text) for metric, key, help_text in spec]
        gauges = {key: self.gauge(metric, help_text)
                  for metric, key, help_text in rows}
        getter = stats if callable(stats) else (lambda: stats)

        def refresh(_registry):
            source = getter()
            if isinstance(source, dict):
                for key, gauge in gauges.items():
                    gauge.set(source.get(key, 0))
            else:
                for key, gauge in gauges.items():
                    gauge.set(getattr(source, key))

        self.register_collector(
            refresh, owns=[metric for metric, _key, _help in rows],
            name=name or "mirror:%s" % rows[0][0])
        return refresh

    # -- reading ---------------------------------------------------------------

    def collect(self):
        """Run every registered collector (refreshing pull-based gauges)."""
        for fn in self._collectors:
            fn(self)

    def names(self):
        return sorted(self._instruments)

    def get(self, name):
        return self._instruments.get(name)

    def snapshot(self):
        """One plain dict: name → number (counter/gauge) or histogram dict."""
        self.collect()
        return {name: instrument.snapshot_value()
                for name, instrument in sorted(self._instruments.items())}

    def render_prometheus(self):
        """The text exposition format (one block per instrument)."""
        self.collect()
        lines = []
        for name, instrument in sorted(self._instruments.items()):
            if instrument.help:
                lines.append("# HELP %s %s" % (name, instrument.help))
            lines.append("# TYPE %s %s" % (name, instrument.kind))
            if instrument.kind == "histogram":
                for edge, count in instrument.cumulative():
                    label = "+Inf" if math.isinf(edge) else _format(edge)
                    lines.append('%s_bucket{le="%s"} %d'
                                 % (name, label, count))
                lines.append("%s_sum %s" % (name, _format(instrument.sum)))
                lines.append("%s_count %d" % (name, instrument.count))
            else:
                lines.append("%s %s" % (name, _format(instrument.value)))
        return "\n".join(lines) + "\n"


def _format(value):
    """Render a metric number without trailing float noise."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Parse Prometheus text exposition into a structured dict.

    Returns ``{"samples": [(name, labels_dict, value), ...],
    "help": {name: help}, "type": {name: kind}}``.  Raises
    :class:`MetricsError` on a line that is neither a comment, blank,
    nor a well-formed sample — the shared parser behind the
    :mod:`repro.obs.aggregate` merger and the metric-hygiene lint.
    """
    samples = []
    helps = {}
    types = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):].split(None, 1)
            helps[rest[0]] = rest[1] if len(rest) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):].split(None, 1)
            types[rest[0]] = rest[1] if len(rest) > 1 else ""
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricsError(
                "exposition line %d is not a valid sample: %r"
                % (number, line))
        labels = {}
        if match.group("labels"):
            labels = {key: value.replace('\\"', '"')
                      for key, value
                      in _LABEL_RE.findall(match.group("labels"))}
        raw = match.group("value")
        try:
            if raw in ("+Inf", "Inf"):
                value = float("inf")
            elif raw == "-Inf":
                value = float("-inf")
            elif raw == "NaN":
                value = float("nan")
            else:
                value = float(raw)
        except ValueError:
            raise MetricsError(
                "exposition line %d has a non-numeric value %r"
                % (number, raw))
        samples.append((match.group("name"), labels, value))
    return {"samples": samples, "help": helps, "type": types}
