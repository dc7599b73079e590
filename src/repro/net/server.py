"""SegmentServer: serve a primary's commit-group archive over TCP.

The server side of the socket transport.  It answers exactly three
questions — "what is the head sequence?" (:data:`~repro.net.frames.REQ_LATEST`),
"what is the retention floor?" (:data:`~repro.net.frames.REQ_OLDEST`)
and "give me segment N" (:data:`~repro.net.frames.REQ_FETCH`) — over the
length-prefixed CRC frames of :mod:`repro.net.frames`, reading straight
from the archive directory.  Segments are immutable once written, so the
server never coordinates with the primary's commit path: it can keep
serving an archive whose writer has died, which is exactly what a
partitioned standby needs to finish catching up before promotion.

Robustness properties:

* **bounded concurrency** — at most ``max_connections`` handler threads;
  a connection over the bound is answered with a ``RESP_ERROR "busy"``
  frame and closed, which the client treats as transient (retry after
  backoff) rather than fatal;
* **per-request deadlines** — a client that stalls mid-frame is cut off
  after ``request_timeout`` seconds (counted in ``stats.timeouts``); an
  *idle* keep-alive connection hitting the same timeout is closed
  quietly (counted in ``stats.idle_closes``) — the client reconnects on
  its next poll;
* **per-request responses only** — the server never pushes, so a slow
  or dead client can hold at most one handler thread, never the archive.

Stats are plain attributes (an ops endpoint serves them at ``/varz``);
pass ``observability`` to trace each served request as a ``net.serve``
event.  A request frame carrying a trace context makes that record join
the sender's trace (``trace`` + ``link`` fields, schema v2).
"""

import socket
import threading

from repro.net.errors import NetworkError
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
    FrameRejected,
    read_frame,
    send_frame,
)
from repro.obs.trace import trace_context
from repro.storage.journal import Archive

#: Default cap on concurrently served connections.
DEFAULT_MAX_CONNECTIONS = 8
#: Default per-request read/write deadline (seconds).
DEFAULT_REQUEST_TIMEOUT = 5.0


class ServerStats:
    """Lifetime counters for one :class:`SegmentServer`."""

    def __init__(self):
        self.connections = 0
        self.rejected_connections = 0   # over max_connections, told "busy"
        self.requests = 0
        self.latest_requests = 0
        self.oldest_requests = 0
        self.fetch_requests = 0
        self.missing_responses = 0
        self.bad_frames = 0             # undecodable/mismatched requests
        self.timeouts = 0               # mid-frame request deadline trips
        self.idle_closes = 0            # idle keep-alives reaped
        self.bytes_sent = 0

    def snapshot(self):
        return dict(self.__dict__)


class SegmentServer:
    """Serve ``archive_dir`` segments to :class:`SocketShipper` clients.

    ``port=0`` binds an ephemeral port; read the bound address from
    :attr:`address` after :meth:`start`.  The server owns only reader
    descriptors on the archive — it is safe to run it over a directory
    whose primary is live, dead, or being restored.
    """

    def __init__(self, archive_dir, page_size, host="127.0.0.1", port=0,
                 max_connections=DEFAULT_MAX_CONNECTIONS,
                 request_timeout=DEFAULT_REQUEST_TIMEOUT,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
                 observability=None):
        self.archive_dir = archive_dir
        self.page_size = page_size
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.max_frame_bytes = max_frame_bytes
        self.stats = ServerStats()
        self._archive = Archive(archive_dir, page_size)
        self._listener = None
        self._accept_thread = None
        self._stop = threading.Event()
        self._slots = threading.Semaphore(max_connections)
        self._handlers = set()
        self._handlers_lock = threading.Lock()
        self.observability = observability
        self._tracer = (observability.tracer if observability is not None
                        else None)

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self):
        """``(host, port)`` the server is bound to (after start)."""
        if self._listener is None:
            raise NetworkError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def running(self):
        return self._listener is not None and not self._stop.is_set()

    def start(self):
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.max_connections * 2)
        # A short accept timeout keeps stop() responsive without a
        # self-connect wakeup dance.
        listener.settimeout(0.1)
        self._listener = listener
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-server", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self):
        if self._listener is None:
            return
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None
        try:
            self._listener.close()
        finally:
            self._listener = None
        with self._handlers_lock:
            pending = list(self._handlers)
        for sock in pending:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()

    # -- accept/serve --------------------------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if not self._slots.acquire(blocking=False):
                # At capacity: tell the client rather than ghosting it,
                # so its retry policy (not its read timeout) decides.
                self.stats.rejected_connections += 1
                try:
                    sock.settimeout(self.request_timeout)
                    send_frame(sock, RESP_ERROR, 0, b"busy")
                except NetworkError:
                    pass
                finally:
                    sock.close()
                continue
            self.stats.connections += 1
            with self._handlers_lock:
                self._handlers.add(sock)
            thread = threading.Thread(
                target=self._serve, args=(sock,),
                name="repro-net-handler", daemon=True)
            thread.start()

    def _serve(self, sock):
        try:
            sock.settimeout(self.request_timeout)
            while not self._stop.is_set():
                if not self._serve_one(sock):
                    break
        finally:
            with self._handlers_lock:
                self._handlers.discard(sock)
            self._slots.release()
            try:
                sock.close()
            except OSError:
                pass

    def _serve_one(self, sock):
        """Handle one request frame; False closes the connection."""
        mid_frame = [False]
        try:
            frame = read_frame(_RecvAdapter(sock, mid_frame),
                               max_frame_bytes=self.max_frame_bytes)
        except FrameRejected:
            self.stats.bad_frames += 1
            return False
        except NetworkError:
            if mid_frame[0]:
                self.stats.timeouts += 1
            else:
                self.stats.idle_closes += 1
            return False
        self.stats.requests += 1
        # A request may carry the sender's trace context: enter it so
        # this node's records join that trace (with a link back to the
        # remote span — the cross-node parent edge, schema v2).
        ctx = frame.context or {}
        trace_id = ctx.get("trace") if isinstance(ctx.get("trace"), str) \
            else None
        link = None
        if trace_id is not None and isinstance(ctx.get("span"), int):
            link = {"trace": trace_id, "span": ctx["span"]}
            if isinstance(ctx.get("node"), str):
                link["node"] = ctx["node"]
        with trace_context(trace_id, link=link):
            try:
                if frame.type == REQ_LATEST:
                    self.stats.latest_requests += 1
                    head = self._archive.latest_sequence() or 0
                    self._send(sock, RESP_LATEST, head)
                elif frame.type == REQ_OLDEST:
                    # The retention floor: what lets a standby tell a
                    # pruned segment (floor above the gap — re-seed)
                    # from one lost in transport (floor below — stall).
                    self.stats.oldest_requests += 1
                    oldest = self._archive.oldest_sequence() or 0
                    self._send(sock, RESP_OLDEST, oldest)
                elif frame.type == REQ_FETCH:
                    self.stats.fetch_requests += 1
                    blob = self._archive.fetch(frame.sequence)
                    if blob is None:
                        self.stats.missing_responses += 1
                        self._send(sock, RESP_MISSING, frame.sequence)
                    else:
                        self._send(sock, RESP_SEGMENT, frame.sequence, blob)
                else:
                    self.stats.bad_frames += 1
                    self._send(sock, RESP_ERROR, frame.sequence,
                               b"unexpected frame type %d" % frame.type)
                    return False
            except NetworkError:
                self.stats.timeouts += 1
                return False
            if self._tracer is not None:
                self._tracer.event("net.serve", type=frame.type,
                                   sequence=frame.sequence)
        return True

    def _send(self, sock, frame_type, sequence, payload=b""):
        send_frame(sock, frame_type, sequence, payload)
        self.stats.bytes_sent += len(payload)


class _RecvAdapter:
    """Wrap a socket so :func:`~repro.net.frames.recv_exact` can report
    whether any bytes of the current frame had arrived before a fault —
    the difference between an idle close and a request timeout."""

    def __init__(self, sock, mid_frame_flag):
        self._sock = sock
        self._flag = mid_frame_flag

    def recv(self, count):
        data = self._sock.recv(count)
        if data:
            self._flag[0] = True
        return data


# -- CLI ---------------------------------------------------------------------

def _parse_endpoint(text):
    import argparse

    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(
            "endpoint must be HOST:PORT, got %r" % text)
    return host, int(port)


def main(argv=None):
    import argparse
    import json
    import signal
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Serve an archive directory's commit-group segments "
                    "over TCP (see docs/NETWORK.md).")
    parser.add_argument("archive_dir", help="archive directory to serve")
    parser.add_argument("--page-size", type=int, default=4096)
    parser.add_argument("--listen", type=_parse_endpoint,
                        default=("127.0.0.1", 0),
                        help="address to listen on (default 127.0.0.1:0, "
                             "an ephemeral port printed at startup)")
    parser.add_argument("--max-connections", type=int,
                        default=DEFAULT_MAX_CONNECTIONS)
    parser.add_argument("--request-timeout", type=float,
                        default=DEFAULT_REQUEST_TIMEOUT, metavar="S")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="exit after this long (default: run until "
                             "interrupted); stats print as JSON on exit")
    args = parser.parse_args(argv)

    server = SegmentServer(
        args.archive_dir, args.page_size, host=args.listen[0],
        port=args.listen[1], max_connections=args.max_connections,
        request_timeout=args.request_timeout)
    server.start()
    host, port = server.address
    print("segment server listening on %s:%d (archive %s)"
          % (host, port, args.archive_dir), flush=True)
    # SIGTERM exits through the same path as Ctrl-C so the stats JSON
    # always lands on stdout for whoever drove the server.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(0))
    try:
        if args.max_seconds is not None:
            server._stop.wait(args.max_seconds)
        else:
            while True:
                server._stop.wait(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(json.dumps(server.stats.snapshot(), sort_keys=True),
              flush=True)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
