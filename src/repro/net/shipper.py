"""SocketShipper: the segment shipper over TCP, hardened against the
network.

The client side of the segment-shipping protocol.  It is a drop-in for
:data:`~repro.storage.replication.LocalDirShipper` under
:class:`~repro.storage.replication.StandbyReplica` — the
replica neither knows nor cares that ``latest_sequence()``/``fetch()``
now cross a wire — but every network failure mode is handled *here*, so
what the replica sees is either a correct answer or a
:class:`~repro.net.errors.NetworkError` (a
:class:`~repro.storage.errors.TransientIOError`) it already knows how to
retry:

* **connect/read timeouts** — a refused, hung or half-open peer trips
  ``connect_timeout``/``read_timeout`` instead of blocking a monitor
  thread forever;
* **bounded retry with jittered exponential backoff** — each request is
  retried up to ``max_retries`` times inside the shipper; the backoff
  doubles, is capped at ``max_backoff_seconds``, and is jittered by a
  seeded RNG so a fleet of standbys reconnecting after a heal does not
  retry in lockstep;
* **idempotent re-fetch after reconnect** — any fault tears down the
  connection; the next attempt reconnects and re-issues the *same*
  request.  Segments are immutable, so re-fetching is always safe;
* **frame validation** — a response whose CRC fails, whose sequence is
  not the one requested (duplicated/reordered delivery), or whose type
  is wrong is **rejected and counted** (``stats.rejections_by_cause``),
  the connection reset, and the request retried — corruption and
  misdelivery are survived, never applied.

``stats`` counts every connect, retry, timeout and rejection; a
rejected frame also emits a ``net.reject`` trace event (with its cause)
on the observability hub, when one is passed.

**Trace context.**  Every request carries the caller's trace context
(trace id, open span, node name) in the frame's context field, so the
server's spans join the same trace — on the first attempt and on every
retry alike.
"""

import random
import socket
from dataclasses import dataclass, field

from repro.net.errors import FrameRejected, NetworkError
from repro.net.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    REQ_FETCH,
    REQ_LATEST,
    REQ_OLDEST,
    RESP_ERROR,
    RESP_LATEST,
    RESP_MISSING,
    RESP_OLDEST,
    RESP_SEGMENT,
    read_frame,
    send_frame,
)
from repro.obs.trace import NULL_TRACER, current_trace_id
from repro.storage.timemodel import SystemClock, backoff_delay

#: Retry policy defaults for one request (connect + send + receive).
DEFAULT_MAX_RETRIES = 3
DEFAULT_CONNECT_TIMEOUT = 1.0
DEFAULT_READ_TIMEOUT = 1.0
DEFAULT_BACKOFF_SECONDS = 0.02
DEFAULT_MAX_BACKOFF_SECONDS = 0.25
#: Fraction of each backoff randomly shaved off (full-jitter-ish).
DEFAULT_BACKOFF_JITTER = 0.5


@dataclass
class ShipperStats:
    """Lifetime counters for one :class:`SocketShipper`."""

    connects: int = 0              # successful connection establishments
    reconnects: int = 0            # connects after the first
    requests: int = 0              # protocol requests attempted
    responses: int = 0             # validated responses accepted
    retries: int = 0               # request attempts after the first
    timeouts: int = 0              # connect/read deadlines tripped
    server_busy: int = 0           # RESP_ERROR frames (capacity, etc.)
    frames_rejected: int = 0       # responses discarded as untrustworthy
    #: Rejections split by why: ``"crc"`` (corrupt in flight),
    #: ``"sequence"`` (duplicate/reordered delivery), ``"type"``,
    #: ``"protocol"``, ``"oversize"``.
    rejections_by_cause: dict = field(default_factory=dict)
    bytes_received: int = 0        # segment payload bytes accepted
    give_ups: int = 0              # requests that exhausted max_retries

    def snapshot(self):
        out = dict(self.__dict__)
        out["rejections_by_cause"] = dict(self.rejections_by_cause)
        return out


class SocketShipper:
    """Fetch segments from a :class:`~repro.net.server.SegmentServer`.

    ``address`` is the server's ``(host, port)``.  The connection is
    established lazily and re-established transparently after any fault,
    so :meth:`close` followed by another call simply reconnects — the
    shipper is always safe to retry.  ``rng`` seeds the backoff jitter
    (pass ``random.Random(seed)`` for reproducible schedules); ``clock``
    makes backoff sleeps virtual-time-testable.
    """

    def __init__(self, address, page_size=4096,
                 connect_timeout=DEFAULT_CONNECT_TIMEOUT,
                 read_timeout=DEFAULT_READ_TIMEOUT,
                 max_retries=DEFAULT_MAX_RETRIES,
                 backoff_seconds=DEFAULT_BACKOFF_SECONDS,
                 max_backoff_seconds=DEFAULT_MAX_BACKOFF_SECONDS,
                 backoff_jitter=DEFAULT_BACKOFF_JITTER,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
                 rng=None, clock=None, observability=None):
        self.address = tuple(address)
        self.page_size = page_size
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.backoff_jitter = backoff_jitter
        self.max_frame_bytes = max_frame_bytes
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock if clock is not None else SystemClock()
        self.stats = ShipperStats()
        self._sock = None
        self._tracer = (observability.tracer if observability is not None
                        else NULL_TRACER)

    # -- shipper calls -------------------------------------------------------

    def latest_sequence(self):
        """Poll the server's head sequence (None for an empty stream)."""
        frame = self._request(REQ_LATEST, 0, expect=RESP_LATEST)
        return frame.sequence or None

    def oldest_sequence(self):
        """Poll the server's retention floor (None for an empty stream)."""
        frame = self._request(REQ_OLDEST, 0, expect=RESP_OLDEST)
        return frame.sequence or None

    def fetch(self, sequence):
        """Raw bytes of segment ``sequence``, or None if the server's
        archive has no such segment.  Validated: the response must echo
        the requested sequence, so a duplicated or reordered frame from
        the network can never be returned as this segment."""
        frame = self._request(REQ_FETCH, sequence,
                              expect=(RESP_SEGMENT, RESP_MISSING))
        if frame.type == RESP_MISSING:
            return None
        self.stats.bytes_received += len(frame.payload)
        return frame.payload

    # -- connection management -----------------------------------------------

    @property
    def connected(self):
        return self._sock is not None

    def _connect(self):
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise NetworkError(
                "connect to %s:%d failed: %s"
                % (self.address[0], self.address[1], exc)) from exc
        sock.settimeout(self.read_timeout)
        if self.stats.connects:
            self.stats.reconnects += 1
        self.stats.connects += 1
        self._sock = sock
        return sock

    def close(self):
        """Drop the connection (idempotent); the next call reconnects."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- request/response ----------------------------------------------------

    def _request(self, frame_type, sequence, expect):
        """One validated request/response exchange, with bounded retry.

        Any fault — connect failure, timeout, torn read, rejected frame,
        server-busy — tears the connection down and retries the same
        request after a jittered exponential backoff.  Exhausting
        ``max_retries`` raises the last failure (always a
        :class:`NetworkError`, hence transient to callers).
        """
        if not isinstance(expect, tuple):
            expect = (expect,)
        attempts = 0
        while True:
            self.stats.requests += 1
            try:
                return self._exchange(frame_type, sequence, expect)
            except NetworkError as exc:
                self.close()
                self._note_failure(exc)
                attempts += 1
                if attempts > self.max_retries:
                    self.stats.give_ups += 1
                    raise
                self.stats.retries += 1
                self._backoff(attempts)

    def _exchange(self, frame_type, sequence, expect):
        sock = self._connect()
        send_frame(sock, frame_type, sequence,
                   context=self._outgoing_context())
        frame = read_frame(sock, max_frame_bytes=self.max_frame_bytes)
        if frame.type == RESP_ERROR:
            self.stats.server_busy += 1
            raise NetworkError(
                "server refused request: %s"
                % frame.payload.decode("utf-8", "replace"))
        if frame.type not in expect:
            raise FrameRejected(
                "expected frame type %s, got %d"
                % ("/".join(map(str, expect)), frame.type), cause="type")
        if (frame.type not in (RESP_LATEST, RESP_OLDEST)
                and frame.sequence != sequence):
            # Duplicated or reordered delivery: this frame answers some
            # other request.  Reject, resync (reconnect), re-fetch.
            # (RESP_LATEST/RESP_OLDEST are exempt: their sequence field
            # carries the answer — head / retention floor — not an echo.)
            raise FrameRejected(
                "requested sequence %d but frame answers %d "
                "(duplicate or reordered delivery)"
                % (sequence, frame.sequence), cause="sequence")
        self.stats.responses += 1
        return frame

    def _outgoing_context(self):
        """The trace context to ride on a request (None when no trace
        is active on the calling thread)."""
        trace_id = current_trace_id()
        if trace_id is None:
            return None
        context = {"trace": trace_id}
        span_id = self._tracer.current_span_id()
        if span_id is not None:
            context["span"] = span_id
        if self._tracer.node_id is not None:
            context["node"] = self._tracer.node_id
        return context

    def _note_failure(self, exc):
        if isinstance(exc, FrameRejected):
            self.stats.frames_rejected += 1
            self.stats.rejections_by_cause[exc.cause] = \
                self.stats.rejections_by_cause.get(exc.cause, 0) + 1
            self._tracer.event("net.reject", cause=exc.cause,
                               error=str(exc))
        elif "timed out" in str(exc):
            self.stats.timeouts += 1

    def _backoff(self, attempts):
        if self.backoff_seconds:
            self.clock.sleep(backoff_delay(
                attempts, self.backoff_seconds, self.max_backoff_seconds,
                self.backoff_jitter, self.rng))

    def __repr__(self):
        return ("SocketShipper(%s:%d, %sconnected, %d responses, "
                "%d rejected)"
                % (self.address[0], self.address[1],
                   "" if self.connected else "not ",
                   self.stats.responses, self.stats.frames_rejected))
