"""Socket-based replication transport with chaos-tested delivery.

The network leg of scale-out (see ``docs/NETWORK.md``): a
length-prefixed, CRC-framed segment-shipping protocol over TCP.

* :mod:`repro.net.frames` — the wire format: framing, checksums,
  sequence echo, bounds;
* :class:`~repro.net.server.SegmentServer` — serves a primary's
  commit-group archive (latest-sequence and fetch-by-sequence) with
  bounded concurrent connections and per-request deadlines;
* :class:`~repro.net.shipper.SocketShipper` — a drop-in for
  :data:`~repro.storage.replication.LocalDirShipper`: one exchange
  per call under connect/read timeouts, reconnect on the next call
  after any fault, and rejection-with-count of frames whose checksum
  or sequence does not match what was requested (the replica's retry
  loop re-issues the request);
* :class:`~repro.net.proxy.ChaosProxy` — a seeded fault-injection
  proxy (latency, bandwidth caps, drops, half-open stalls, partitions
  with heal, duplicate/reordered/corrupt frames), in-process or as
  ``python -m repro.net.proxy``.

Every transport failure surfaces as
:class:`~repro.net.errors.NetworkError`, a subclass of
:class:`~repro.storage.errors.TransientIOError` — so the existing
replica retry/backoff and cluster health machinery absorb network
faults without new plumbing, while :func:`~repro.net.errors.is_network_error`
lets the cluster treat a partition blip differently from a dead node.
"""

from repro.net.errors import FrameRejected, NetworkError, is_network_error
from repro.net.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    REQ_FETCH,
    REQ_LATEST,
    RESP_ERROR,
    RESP_LATEST,
    RESP_MISSING,
    RESP_SEGMENT,
    Frame,
    decode_frame,
    encode_frame,
)
from repro.net.proxy import ChaosConfig, ChaosProxy, ProxyStats
from repro.net.server import SegmentServer, ServerStats
from repro.net.shipper import ShipperStats, SocketShipper

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "DEFAULT_MAX_FRAME_BYTES",
    "Frame",
    "FrameRejected",
    "NetworkError",
    "ProxyStats",
    "REQ_FETCH",
    "REQ_LATEST",
    "RESP_ERROR",
    "RESP_LATEST",
    "RESP_MISSING",
    "RESP_SEGMENT",
    "SegmentServer",
    "ServerStats",
    "ShipperStats",
    "SocketShipper",
    "decode_frame",
    "encode_frame",
    "is_network_error",
]
