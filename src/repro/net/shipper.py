"""SocketShipper: the segment shipper over TCP, hardened against the
network.

The client side of the segment-shipping protocol.  It is a drop-in for
:data:`~repro.storage.replication.LocalDirShipper` under
:class:`~repro.storage.replication.StandbyReplica` — the
replica neither knows nor cares that ``latest_sequence()``/``fetch()``
now cross a wire.  Each call makes **one exchange**: it returns a
validated answer, or it tears the connection down and raises
:class:`~repro.net.errors.NetworkError` (a
:class:`~repro.storage.errors.TransientIOError`), exactly as a failed
read of a local archive would.  Retrying is the replica's job — its
``_with_retry`` loop, on its own clock and RNG, is the one retry and
backoff on the shipping path, so :meth:`StandbyReplica.interrupt
<repro.storage.replication.StandbyReplica.interrupt>` reaches every
sleep and every remaining attempt.

What the shipper itself guarantees:

* **connect/read timeouts** — a refused, hung or half-open peer trips
  ``connect_timeout``/``read_timeout`` instead of blocking a monitor
  thread forever;
* **reconnect on the next call** — any fault tears down the
  connection, and the next call reconnects.  Segments are immutable, so
  the caller re-issuing the same request is always safe;
* **frame validation** — a response whose CRC fails, whose sequence is
  not the one requested (duplicated/reordered delivery), or whose type
  is wrong is **rejected and counted** (``stats.rejections_by_cause``)
  and raised as :class:`~repro.net.errors.FrameRejected` — corruption
  and misdelivery are survived by the caller's retry, never applied.

``stats`` counts every connect, request, timeout and rejection; a
rejected frame also emits a ``net.reject`` trace event (with its cause)
on the observability hub, when one is passed.

**Trace context.**  Every request carries the caller's trace context
(trace id, open span, node name) in the frame's context field, so the
server's spans join the same trace — on the first call and on every
retry alike.
"""

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

#: Deadlines for one exchange (connect, then send + receive).
DEFAULT_CONNECT_TIMEOUT = 1.0
DEFAULT_READ_TIMEOUT = 1.0


@dataclass
class ShipperStats:
    """Lifetime counters for one :class:`SocketShipper`."""

    connects: int = 0              # successful connection establishments
    reconnects: int = 0            # connects after the first
    requests: int = 0              # exchanges attempted (one per call)
    responses: int = 0             # validated responses accepted
    timeouts: int = 0              # connect/read deadlines tripped
    server_busy: int = 0           # RESP_ERROR frames (capacity, etc.)
    frames_rejected: int = 0       # responses discarded as untrustworthy
    #: Rejections split by why: ``"crc"`` (corrupt in flight),
    #: ``"sequence"`` (duplicate/reordered delivery), ``"type"``,
    #: ``"protocol"``, ``"oversize"``.
    rejections_by_cause: dict = field(default_factory=dict)
    bytes_received: int = 0        # segment payload bytes accepted

    def snapshot(self):
        out = dict(self.__dict__)
        out["rejections_by_cause"] = dict(self.rejections_by_cause)
        return out


class SocketShipper:
    """Fetch segments from a :class:`~repro.net.server.SegmentServer`.

    ``address`` is the server's ``(host, port)``.  The connection is
    established lazily and re-established on the call after any fault,
    so :meth:`close` followed by another call simply reconnects — the
    shipper is always safe to retry, and never retries by itself.
    """

    def __init__(self, address, page_size=4096,
                 connect_timeout=DEFAULT_CONNECT_TIMEOUT,
                 read_timeout=DEFAULT_READ_TIMEOUT,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
                 observability=None):
        self.address = tuple(address)
        self.page_size = page_size
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.max_frame_bytes = max_frame_bytes
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
        """One validated request/response exchange.

        Any fault — connect failure, timeout, torn read, rejected frame,
        server-busy — tears the connection down, is counted, and raises
        (always a :class:`NetworkError`, hence transient to callers,
        whose retry re-issues the request over a new connection).
        """
        if not isinstance(expect, tuple):
            expect = (expect,)
        self.stats.requests += 1
        try:
            return self._exchange(frame_type, sequence, expect)
        except NetworkError as exc:
            self.close()
            self._note_failure(exc)
            raise

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
            # other request.  Reject; the next call reconnects (resyncs).
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

    def __repr__(self):
        return ("SocketShipper(%s:%d, %sconnected, %d responses, "
                "%d rejected)"
                % (self.address[0], self.address[1],
                   "" if self.connected else "not ",
                   self.stats.responses, self.stats.frames_rejected))
