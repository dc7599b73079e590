"""ChaosProxy: a fault-injecting TCP proxy for the segment protocol.

Sits between a :class:`~repro.net.shipper.SocketShipper` and a
:class:`~repro.net.server.SegmentServer` and makes the network as bad
as you ask, deterministically (seeded RNG, injectable clock):

* **latency / jitter** — every response frame is delayed by
  ``latency_seconds`` plus up to ``jitter_seconds`` more;
* **bandwidth cap** — ``bandwidth_bytes_per_sec`` throttles frame
  delivery to a slow link;
* **drops** — with ``drop_rate`` per frame the connection is torn down
  abruptly (both sides), mid-conversation;
* **half-open stalls** — with ``stall_rate`` per frame the proxy holds
  the frame for ``stall_seconds`` while keeping the connection open:
  the peer sees a live socket that says nothing (the classic half-open
  TCP failure), which is what read timeouts exist for;
* **duplicates** — with ``duplicate_rate`` a response frame is
  delivered twice; the stale copy answers the *next* request on that
  connection, which the shipper must reject by sequence;
* **reorders** — with ``reorder_rate`` a frame is held back and
  delivered after its successor (true out-of-order delivery);
* **corruption** — with ``corrupt_rate`` one byte of the frame body is
  flipped, which the shipper must reject by CRC;
* **partitions** — :meth:`partition` stops all forwarding and turns
  new connections away (``mode="refuse"``: closed immediately;
  ``mode="blackhole"``: accepted then silently held, a half-open
  accept); :meth:`heal` restores service.  Existing connections stall
  while partitioned — exactly the shape of a switch losing its uplink.

Frame-awareness matters: because the protocol is length-prefixed
(:mod:`repro.net.frames`), the proxy can split the byte stream into
whole frames and duplicate/reorder/corrupt *frames*, producing the
misdelivery patterns the shipper's sequence/CRC validation exists to
catch.  Request-direction bytes (client → upstream) are forwarded
verbatim; chaos is applied to the response stream.

Use in-process (``ChaosProxy(upstream).start()``) or standalone::

    python -m repro.net.proxy --upstream HOST:PORT [--listen HOST:PORT]
        [--seed N] [--latency S] [--drop-rate P] [--duplicate-rate P] ...
"""

import argparse
import json
import random
import signal
import socket
import struct
import sys
import threading
from dataclasses import dataclass

from repro.storage.timemodel import SystemClock

_PREFIX = struct.Struct("<I")

#: How long one pump waits on a quiet socket before re-checking flags.
_POLL_SECONDS = 0.05
#: Hard ceiling on one buffered frame (matches the protocol default).
_MAX_FRAME_BYTES = 16 * 1024 * 1024


@dataclass
class ChaosConfig:
    """Per-frame fault probabilities and link shaping for one proxy."""

    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    bandwidth_bytes_per_sec: float = None
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.5


class ProxyStats:
    """Lifetime counters for one :class:`ChaosProxy`."""

    def __init__(self):
        self.connections = 0
        self.refused_connections = 0    # turned away while partitioned
        self.blackholed_connections = 0  # accepted then silently held
        self.frames_forwarded = 0
        self.frames_delayed = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_corrupted = 0
        self.frames_stalled = 0
        self.dropped_connections = 0
        self.bytes_upstream = 0         # client -> server
        self.bytes_downstream = 0       # server -> client

    def snapshot(self):
        return dict(self.__dict__)


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of ``upstream``.

    ``upstream`` is the real server's ``(host, port)``; ``port=0`` binds
    an ephemeral listen port (read :attr:`address` after
    :meth:`start`).  All chaos decisions come from ``random.Random(seed)``
    and all sleeps run on ``clock``, so a schedule is reproducible.
    """

    def __init__(self, upstream, host="127.0.0.1", port=0, config=None,
                 seed=0, clock=None):
        self.upstream = tuple(upstream)
        self.host = host
        self.port = port
        self.config = config if config is not None else ChaosConfig()
        self.rng = random.Random(seed)
        self.clock = clock if clock is not None else SystemClock()
        self.stats = ProxyStats()
        self._listener = None
        self._accept_thread = None
        self._stop = threading.Event()
        self._partitioned = threading.Event()
        self._partition_mode = "refuse"
        self._conns = set()
        self._conns_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self):
        if self._listener is None:
            raise RuntimeError("proxy is not started")
        return self._listener.getsockname()[:2]

    def start(self):
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.1)
        self._listener = listener
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-chaos-proxy", daemon=True)
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
        with self._conns_lock:
            pending = list(self._conns)
        self._untrack_close(*pending)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()

    # -- fault control -------------------------------------------------------

    @property
    def partitioned(self):
        return self._partitioned.is_set()

    def partition(self, mode="refuse"):
        """Cut the link: existing connections stall, new ones are turned
        away.  ``mode="refuse"`` closes them on arrival (connection
        reset); ``mode="blackhole"`` accepts and then says nothing (a
        half-open accept the client's read timeout must catch)."""
        if mode not in ("refuse", "blackhole"):
            raise ValueError("partition mode must be 'refuse' or "
                             "'blackhole', not %r" % (mode,))
        self._partition_mode = mode
        self._partitioned.set()

    def heal(self):
        """End the partition.  Stalled connections resume; blackholed
        ones are closed so their clients reconnect cleanly."""
        self._partitioned.clear()

    # -- plumbing ------------------------------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                client, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if self._partitioned.is_set():
                if self._partition_mode == "refuse":
                    self.stats.refused_connections += 1
                    client.close()
                else:
                    self.stats.blackholed_connections += 1
                    self._track(client)
                    threading.Thread(
                        target=self._blackhole, args=(client,),
                        name="repro-chaos-blackhole", daemon=True).start()
                continue
            try:
                server = socket.create_connection(self.upstream,
                                                  timeout=1.0)
            except OSError:
                client.close()
                continue
            self.stats.connections += 1
            self._track(client)
            self._track(server)
            threading.Thread(
                target=self._pump_requests, args=(client, server),
                name="repro-chaos-up", daemon=True).start()
            threading.Thread(
                target=self._pump_responses, args=(server, client),
                name="repro-chaos-down", daemon=True).start()

    def _track(self, sock):
        with self._conns_lock:
            self._conns.add(sock)

    def _untrack_close(self, *socks):
        """Forget and close ``socks``.  Shut each down first: the other
        pump may still be blocked in ``recv`` on it, and a bare close
        then waits for that call to time out before the peer sees the
        FIN — holding a server slot for up to ``_POLL_SECONDS``."""
        with self._conns_lock:
            for sock in socks:
                self._conns.discard(sock)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass   # never connected, or already shut down
            try:
                sock.close()
            except OSError:
                pass

    def _blackhole(self, client):
        """Hold an accepted connection silently until heal or stop, then
        close it — the client's read timeout is the only way out."""
        client.settimeout(_POLL_SECONDS)
        while not self._stop.is_set() and self._partitioned.is_set():
            # Drain (and discard) whatever the client sends so its send
            # buffer never pushes back; we just never answer.
            try:
                if not client.recv(65536):
                    break
            except socket.timeout:
                continue
            except OSError:
                break
        self._untrack_close(client)

    def _wait_out_partition(self):
        """Block while partitioned; False means the proxy is stopping."""
        while self._partitioned.is_set():
            if self._stop.is_set():
                return False
            self._stop.wait(_POLL_SECONDS)
        return not self._stop.is_set()

    def _pump_requests(self, client, server):
        """client → upstream: verbatim bytes (requests are small), but a
        partition stalls the flow like any other."""
        try:
            client.settimeout(_POLL_SECONDS)
        except OSError:
            self._untrack_close(client, server)
            return   # peer pump already tore the pair down
        try:
            while not self._stop.is_set():
                try:
                    data = client.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                if not self._wait_out_partition():
                    break
                self.stats.bytes_upstream += len(data)
                try:
                    server.sendall(data)
                except OSError:
                    break
        finally:
            self._untrack_close(client, server)

    def _pump_responses(self, server, client):
        """upstream → client: split into frames, apply chaos, forward."""
        try:
            server.settimeout(_POLL_SECONDS)
        except OSError:
            self._untrack_close(client, server)
            return   # peer pump already tore the pair down
        previous = None   # last frame forwarded, replay source for reorder
        try:
            while not self._stop.is_set():
                frame = self._read_frame(server)
                if frame is None:
                    break
                if not self._wait_out_partition():
                    break
                if not self._deliver(client, frame, previous):
                    self.stats.dropped_connections += 1
                    break
                previous = frame
        finally:
            self._untrack_close(client, server)

    def _read_frame(self, server):
        """One whole frame from upstream (prefix + body), or None on
        close/stop.  Partition does not stop *reading* — data the server
        already sent sits in buffers, as on a real network."""
        prefix = self._recv_exact(server, _PREFIX.size)
        if prefix is None:
            return None
        (length,) = _PREFIX.unpack(prefix)
        if length > _MAX_FRAME_BYTES:
            return None   # not our protocol; drop the connection
        body = self._recv_exact(server, length)
        if body is None:
            return None
        return prefix + body

    def _recv_exact(self, sock, count):
        chunks = []
        remaining = count
        while remaining:
            if self._stop.is_set():
                return None
            try:
                chunk = sock.recv(remaining)
            except socket.timeout:
                continue
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _deliver(self, client, frame, previous):
        """Apply chaos to one response frame; False means the connection
        was torn down."""
        cfg = self.config
        rng = self.rng
        if cfg.stall_rate and rng.random() < cfg.stall_rate:
            self.stats.frames_stalled += 1
            self.clock.sleep(cfg.stall_seconds)
        if cfg.drop_rate and rng.random() < cfg.drop_rate:
            return False
        batch = []
        if (cfg.reorder_rate and previous is not None
                and rng.random() < cfg.reorder_rate):
            # Out-of-order delivery: an older frame arrives *before* the
            # one that answers the outstanding request.  The requester
            # must reject it by sequence, not apply it.
            self.stats.frames_reordered += 1
            batch.append(previous)
        if cfg.duplicate_rate and rng.random() < cfg.duplicate_rate:
            self.stats.frames_duplicated += 1
            batch.append(frame)
        batch.append(frame)
        for item in batch:
            if cfg.corrupt_rate and rng.random() < cfg.corrupt_rate:
                item = self._corrupt(item)
            if not self._send(client, item):
                return False
        return True

    def _corrupt(self, frame):
        """Flip one byte of the frame body (never the length prefix, so
        framing survives and the CRC check does the catching)."""
        self.stats.frames_corrupted += 1
        body_start = _PREFIX.size
        index = self.rng.randrange(body_start, len(frame))
        corrupted = bytearray(frame)
        corrupted[index] ^= 0xFF
        return bytes(corrupted)

    def _send(self, client, frame):
        cfg = self.config
        delay = cfg.latency_seconds
        if cfg.jitter_seconds:
            delay += self.rng.uniform(0.0, cfg.jitter_seconds)
        if cfg.bandwidth_bytes_per_sec:
            delay += len(frame) / cfg.bandwidth_bytes_per_sec
        if delay > 0:
            self.stats.frames_delayed += 1
            self.clock.sleep(delay)
        if self._partitioned.is_set() and not self._wait_out_partition():
            return False
        try:
            client.sendall(frame)
        except OSError:
            return False
        self.stats.frames_forwarded += 1
        self.stats.bytes_downstream += len(frame)
        return True


# -- CLI ---------------------------------------------------------------------

def _parse_endpoint(text):
    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(
            "endpoint must be HOST:PORT, got %r" % text)
    return host, int(port)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.proxy",
        description="Fault-injecting TCP proxy for the segment-shipping "
                    "protocol (see docs/NETWORK.md).")
    parser.add_argument("--upstream", type=_parse_endpoint, required=True,
                        help="real server address, HOST:PORT")
    parser.add_argument("--listen", type=_parse_endpoint,
                        default=("127.0.0.1", 0),
                        help="address to listen on (default 127.0.0.1:0, "
                             "an ephemeral port printed at startup)")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos RNG seed (default 0)")
    parser.add_argument("--latency", type=float, default=0.0,
                        metavar="S", help="fixed per-frame delay")
    parser.add_argument("--jitter", type=float, default=0.0,
                        metavar="S", help="additional random delay")
    parser.add_argument("--bandwidth", type=float, default=None,
                        metavar="BPS", help="bandwidth cap, bytes/second")
    parser.add_argument("--drop-rate", type=float, default=0.0,
                        metavar="P", help="per-frame connection drop")
    parser.add_argument("--duplicate-rate", type=float, default=0.0,
                        metavar="P", help="per-frame duplicate delivery")
    parser.add_argument("--reorder-rate", type=float, default=0.0,
                        metavar="P", help="per-frame reordered delivery")
    parser.add_argument("--corrupt-rate", type=float, default=0.0,
                        metavar="P", help="per-frame single-byte flip")
    parser.add_argument("--stall-rate", type=float, default=0.0,
                        metavar="P", help="per-frame half-open stall")
    parser.add_argument("--stall-seconds", type=float, default=0.5,
                        metavar="S", help="length of one stall")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="exit after this long (default: run until "
                             "interrupted); stats print as JSON on exit")
    args = parser.parse_args(argv)

    config = ChaosConfig(
        latency_seconds=args.latency, jitter_seconds=args.jitter,
        bandwidth_bytes_per_sec=args.bandwidth, drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate, reorder_rate=args.reorder_rate,
        corrupt_rate=args.corrupt_rate, stall_rate=args.stall_rate,
        stall_seconds=args.stall_seconds)
    proxy = ChaosProxy(args.upstream, host=args.listen[0],
                       port=args.listen[1], config=config, seed=args.seed)
    proxy.start()
    host, port = proxy.address
    print("chaos proxy listening on %s:%d -> %s:%d"
          % (host, port, args.upstream[0], args.upstream[1]), flush=True)
    # SIGTERM exits through the same path as Ctrl-C so the stats JSON
    # always lands on stdout for whoever drove the proxy.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(0))
    try:
        if args.max_seconds is not None:
            proxy._stop.wait(args.max_seconds)
        else:
            while True:
                proxy._stop.wait(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(json.dumps(proxy.stats.snapshot(), sort_keys=True),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
