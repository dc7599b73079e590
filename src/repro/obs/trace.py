"""Structured tracing: nested spans and point events in a bounded ring.

The paper's cost claims are *per-operation* claims — one ``FindAncestors``
probe costs ``O(log_F N + R)`` I/Os — so proving them in a running system
needs the causal chain from a query down to the individual page fetch.
:class:`Tracer` records that chain as structured events:

    query  →  plan  →  join operator  →  page fetch

Spans (``tracer.span(kind, **fields)``) nest via a context-manager API and
emit a *begin* record on entry and an *end* record (with ``dur``) on exit;
point events (``tracer.event(kind, **fields)``) attach to the innermost
open span.  Records land in a bounded ring buffer — a fixed-capacity
overwrite ring, so a tracer left enabled forever costs bounded memory and
the newest records always survive (``dropped`` counts the overwritten
ones).

Cost discipline: a **disabled tracer is a no-op costing one predicate
check**.  Instrumentation sites follow the pattern::

    if tracer is not None and tracer.enabled:
        tracer.event("page-fetch", page=page_id, hit=True)

so the hot path pays a single attribute load and branch.  ``span()`` on a
disabled tracer returns one shared null span object (no allocation).

Export is JSONL (:meth:`Tracer.export_jsonl`): one JSON object per line,
first a ``trace-meta`` header (schema version, capacity, dropped count),
then the ring's records oldest-first.  The schema is documented in
``docs/OBSERVABILITY.md`` and machine-checked by :mod:`repro.obs.validate`.

Schema **v2** makes traces cluster-wide.  A tracer may carry a
``node_id`` (stamped as ``node`` on every record), and a thread-local
**trace context** — entered with :class:`trace_context` and read with
:func:`current_trace_id` — stamps ``trace`` (one id per logical
operation), ``attempt`` (which retry/hedge leg emitted the record) and
``link`` (a remote parent: the span/node on another process that caused
this work, carried over the wire by :mod:`repro.net.frames`).  Because
the context is thread-local and process-global, one ``trace_context``
covers spans emitted on *every* hub the thread touches — a cluster read
that fails over through three backends leaves records on three tracers,
all joined by one ``trace`` id.  ``meta()`` additionally records
``wall_epoch`` (wall-clock seconds at tracer creation) so per-node
monotonic timestamps can be aligned across machines
(:mod:`repro.obs.postmortem`).
"""

import io
import json
import threading
import time
import uuid

#: Schema version stamped on every record (bump on incompatible change).
TRACE_SCHEMA_VERSION = 2

#: Default ring capacity (records, not bytes).
DEFAULT_TRACE_CAPACITY = 4096

#: Record phases.
PHASES = ("begin", "end", "event", "meta")

#: The thread-local trace context: ``(trace_id, attempt, link)`` or
#: absent.  Module-global so one context covers every tracer a thread
#: emits into (cluster hub, per-node hubs, net transport).
_CONTEXT = threading.local()


def new_trace_id():
    """A fresh globally unique trace id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def current_trace_id():
    """The thread's active trace id, or None outside any context."""
    ctx = getattr(_CONTEXT, "ctx", None)
    return ctx[0] if ctx is not None else None


def current_context():
    """The thread's ``(trace_id, attempt, link)`` triple, or None."""
    return getattr(_CONTEXT, "ctx", None)


class trace_context:
    """Bind a trace id (and optionally an attempt id and a remote
    ``link`` parent) to the current thread for the duration of a block.

    Every record any tracer emits from this thread while the block is
    open carries the context.  Contexts nest: the previous one is
    restored on exit, so a failover running inside a client read keeps
    its own trace without clobbering the caller's.  ``trace_id=None``
    clears the context (records revert to context-free).
    """

    __slots__ = ("trace_id", "attempt", "link", "_prev")

    def __init__(self, trace_id, attempt=None, link=None):
        self.trace_id = trace_id
        self.attempt = attempt
        self.link = link
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_CONTEXT, "ctx", None)
        if self.trace_id is None:
            _CONTEXT.ctx = None
        else:
            _CONTEXT.ctx = (self.trace_id, self.attempt, self.link)
        return self

    def __exit__(self, exc_type, exc, tb):
        _CONTEXT.ctx = self._prev
        return False


class _NullSpan:
    """The shared span returned by a disabled tracer — a pure no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def note(self, **fields):
        """Ignore attached fields (the enabled variant records them)."""


NULL_SPAN = _NullSpan()


class Span:
    """One open span: emits *begin* on ``__enter__``, *end* on ``__exit__``.

    ``note(**fields)`` attaches fields after the fact; they ride the end
    record (e.g. result sizes known only when the operation finishes).
    """

    __slots__ = ("_tracer", "kind", "span_id", "parent_id", "fields",
                 "_started")

    def __init__(self, tracer, kind, parent_id, fields):
        self._tracer = tracer
        self.kind = kind
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.fields = fields
        self._started = None

    def note(self, **fields):
        self.fields.update(fields)

    def __enter__(self):
        tracer = self._tracer
        self._started = tracer._now()
        tracer._push(self)
        tracer._emit(self.kind, "begin", self.span_id, self.parent_id,
                     dict(self.fields), None)
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        duration = tracer._now() - self._started
        if exc_type is not None:
            self.fields["error"] = exc_type.__name__
        tracer._pop(self)
        tracer._emit(self.kind, "end", self.span_id, self.parent_id,
                     dict(self.fields), duration)
        return False


class Tracer:
    """A bounded-ring structured-event recorder.

    ``capacity`` bounds resident records; when full, the oldest record is
    overwritten and ``dropped`` incremented.  ``enabled`` gates every
    entry point: a disabled tracer's :meth:`span` returns the shared
    :data:`NULL_SPAN` and :meth:`event` returns immediately.

    Timestamps (``ts``) are seconds since the tracer was created, from a
    monotonic clock — stable across records, meaningless across tracers
    until aligned through ``wall_epoch`` (wall-clock seconds at tracer
    creation, carried in :meth:`meta`).  The span stack is thread-local
    (each thread nests its own spans); the ring itself is guarded by a
    lock so concurrent emitters interleave safely and ring order stays
    timestamp-ordered.

    ``node_id`` names the process/backend this tracer belongs to; when
    set, every record carries it as ``node`` so merged multi-node traces
    stay attributable.  **Sinks** (:meth:`add_sink`) are callbacks fed a
    copy of every emitted record — how the
    :class:`~repro.obs.flight.FlightRecorder` persists history beyond
    the ring — and cost nothing until one is attached.
    """

    def __init__(self, capacity=DEFAULT_TRACE_CAPACITY, enabled=True,
                 node_id=None):
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = capacity
        self.enabled = enabled
        self.node_id = node_id
        self.dropped = 0
        self.emitted = 0
        self._epoch = time.monotonic()
        self._wall_epoch = time.time()
        self._ring = []
        self._write = 0          # next overwrite slot once the ring is full
        self._span_counter = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sinks = []

    # -- recording -----------------------------------------------------------

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def span(self, kind, **fields):
        """A nested span context manager (or the null span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, kind, self._current_span_id(), fields)

    def event(self, kind, **fields):
        """A point event attached to the innermost open span."""
        if not self.enabled:
            return
        self._emit(kind, "event", None, self._current_span_id(), fields,
                   None)

    # -- ring access ---------------------------------------------------------

    def records(self):
        """The resident records, oldest first (list of dicts)."""
        with self._lock:
            if len(self._ring) < self.capacity:
                return list(self._ring)
            return self._ring[self._write:] + self._ring[:self._write]

    def clear(self):
        """Drop every record and reset the drop counter."""
        with self._lock:
            self._ring = []
            self._write = 0
            self.dropped = 0
            self.emitted = 0

    def __len__(self):
        return len(self._ring)

    def meta(self):
        """The ``trace-meta`` header record describing this export."""
        header = {
            "v": TRACE_SCHEMA_VERSION,
            "kind": "trace-meta",
            "phase": "meta",
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "wall_epoch": round(self._wall_epoch, 6),
        }
        if self.node_id is not None:
            header["node"] = self.node_id
        return header

    # -- sinks ---------------------------------------------------------------

    def add_sink(self, fn):
        """Feed every future record (a dict) to ``fn`` as it is emitted.

        Sinks run outside the ring lock, in the emitting thread; a sink
        that raises is detached rather than poisoning instrumentation
        sites.  Returns ``fn`` for decorator use.
        """
        self._sinks.append(fn)
        return fn

    def remove_sink(self, fn):
        try:
            self._sinks.remove(fn)
        except ValueError:
            pass

    def export_jsonl(self, target=None):
        """Serialize the ring as JSONL: meta header, then records.

        ``target`` may be a path or a writable text file object; with no
        target the JSONL text is returned.
        """
        lines = [json.dumps(self.meta(), sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True)
                     for record in self.records())
        text = "\n".join(lines) + "\n"
        if target is None:
            return text
        if isinstance(target, (str, bytes)):
            with io.open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            target.write(text)
        return None

    # -- internals -----------------------------------------------------------

    def _now(self):
        return time.monotonic() - self._epoch

    def _next_span_id(self):
        with self._lock:
            self._span_counter += 1
            return self._span_counter

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self):
        """The open span id on the calling thread (None outside a span).

        What a transport puts in an outgoing trace context so the
        remote node can link its spans back to this one.
        """
        return self._current_span_id()

    def _current_span_id(self):
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _push(self, span):
        self._stack().append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def _emit(self, kind, phase, span_id, parent_id, fields, duration):
        record = {
            "v": TRACE_SCHEMA_VERSION,
            "kind": kind,
            "phase": phase,
        }
        if span_id is not None:
            record["span"] = span_id
        if parent_id is not None:
            record["parent"] = parent_id
        if duration is not None:
            record["dur"] = round(duration, 9)
        if self.node_id is not None:
            record["node"] = self.node_id
        ctx = getattr(_CONTEXT, "ctx", None)
        if ctx is not None:
            trace_id, attempt, link = ctx
            record["trace"] = trace_id
            if attempt is not None:
                record["attempt"] = attempt
            if link is not None:
                record["link"] = link
        if fields:
            record["fields"] = fields
        with self._lock:
            # The timestamp is taken under the lock so ring order is
            # timestamp order even with concurrent emitters.
            record["ts"] = round(self._now(), 9)
            self.emitted += 1
            if len(self._ring) < self.capacity:
                self._ring.append(record)
            else:
                self._ring[self._write] = record
                self._write = (self._write + 1) % self.capacity
                self.dropped += 1
        if self._sinks:
            for sink in list(self._sinks):
                try:
                    sink(record)
                except Exception:
                    self.remove_sink(sink)


#: A module-level disabled tracer for call sites that want a never-None
#: default without paying for a ring.
NULL_TRACER = Tracer(capacity=1, enabled=False)
