"""Wire format of the segment-shipping protocol: length-prefixed,
CRC-framed messages.

One frame on the wire is::

    u32   length      bytes that follow (header + payload + crc)
    4s    magic        b"XRN1"
    u8    version      protocol version (always 2)
    u8    type         request/response kind (REQ_*/RESP_*)
    u64   sequence     the commit sequence this frame is about
    u16   ctx_len      length of the trace-context blob (0 = none)
    ...   context      UTF-8 JSON trace context (trace/span/node)
    ...   payload      type-specific bytes (segment body, error text)
    u32   crc          CRC-32 over everything between length and crc

The **trace-context blob** between header and payload is a small JSON
object carrying the sender's trace id, open span id and node name, so
spans on the receiving node can join the sender's trace (schema v2
``link`` records — see ``docs/OBSERVABILITY.md``).  Both ends of the
wire are this build, so a frame of any other version is an incompatible
peer and is rejected (``cause="protocol"``).

Design points, each load-bearing for the chaos harness:

* the **length prefix** makes framing self-describing, so a proxy (or a
  test) can split a TCP byte stream into whole frames without knowing
  the protocol — that is how :class:`~repro.net.proxy.ChaosProxy`
  duplicates, reorders and corrupts *frames* rather than raw chunks;
* the **CRC over header + payload** means a flipped bit anywhere —
  including in the type or sequence fields — is detected by the
  receiver, which rejects the frame (``cause="crc"``) instead of acting
  on it;
* the **sequence echo** in every response lets the requester check that
  the answer matches what it asked for: a duplicated or reordered
  response frame carries the wrong sequence and is rejected
  (``cause="sequence"``) — after which the connection is reset and the
  idempotent fetch re-issued;
* the **length bound** (``max_frame_bytes``) caps what a peer can make
  us buffer; a claimed length beyond it is rejected (``cause="oversize"``)
  without reading the body.

The codec is pure bytes-in/bytes-out (unit-testable without sockets);
:func:`recv_exact` / :func:`read_frame` are the socket-side helpers the
client, server and proxy share.
"""

import json
import socket
import struct
import zlib
from collections import namedtuple

from repro.net.errors import FrameRejected, NetworkError

MAGIC = b"XRN1"
#: The one protocol version this build speaks and accepts.
VERSION = 2

#: Frame types.  Requests carry the sequence they ask about; responses
#: echo the sequence they answer.
REQ_LATEST = 1     # -> RESP_LATEST (sequence = head, 0 for empty stream)
REQ_FETCH = 2      # -> RESP_SEGMENT | RESP_MISSING
RESP_LATEST = 3
RESP_SEGMENT = 4   # payload = raw segment bytes
RESP_MISSING = 5   # the archive has no segment at that sequence
RESP_ERROR = 6     # payload = utf-8 reason (e.g. server at capacity)
REQ_OLDEST = 7     # -> RESP_OLDEST (sequence = retention floor, 0 = empty)
RESP_OLDEST = 8

_FRAME_TYPES = frozenset((REQ_LATEST, REQ_FETCH, RESP_LATEST,
                          RESP_SEGMENT, RESP_MISSING, RESP_ERROR,
                          REQ_OLDEST, RESP_OLDEST))

_PREFIX = struct.Struct("<I")
_HEADER = struct.Struct("<4sBBQ")   # magic, version, type, sequence
_CTX_LEN = struct.Struct("<H")      # trace-context byte count
_CRC = struct.Struct("<I")

#: Smallest possible frame body: header + empty payload + crc.
MIN_FRAME_BYTES = _HEADER.size + _CRC.size
#: Default ceiling on one frame (a segment of ~4k pages fits easily).
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

Frame = namedtuple("Frame", ("type", "sequence", "payload", "context",
                             "version"))


def _encode_context(context):
    if context is None:
        return b""
    blob = json.dumps(context, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(blob) > 0xFFFF:
        raise FrameRejected(
            "trace context of %d bytes exceeds the u16 length field"
            % len(blob), cause="protocol")
    return blob


def encode_frame(frame_type, sequence, payload=b"", context=None):
    """Serialize one frame, length prefix included.

    ``context`` is a small JSON-serializable dict carried between header
    and payload (None sends an empty context field).
    """
    blob = _encode_context(context)
    body = (_HEADER.pack(MAGIC, VERSION, frame_type, sequence)
            + _CTX_LEN.pack(len(blob)) + blob + payload)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _PREFIX.pack(len(body) + _CRC.size) + body + _CRC.pack(crc)


def decode_frame(body):
    """Decode one frame body (the bytes *after* the length prefix).

    Returns a :class:`Frame` (``frame.context`` is the decoded trace
    context when the frame carried one, else None); raises :class:`FrameRejected` with
    ``cause="protocol"`` for a malformed or wrong-version frame and
    ``cause="crc"`` when the checksum does not match the content.
    """
    if len(body) < MIN_FRAME_BYTES:
        raise FrameRejected(
            "frame body of %d bytes is shorter than the %d-byte minimum"
            % (len(body), MIN_FRAME_BYTES), cause="protocol")
    magic, version, frame_type, sequence = _HEADER.unpack_from(body, 0)
    (stored_crc,) = _CRC.unpack_from(body, len(body) - _CRC.size)
    computed = zlib.crc32(body[:-_CRC.size]) & 0xFFFFFFFF
    if computed != stored_crc:
        raise FrameRejected(
            "frame CRC mismatch (stored %08x, computed %08x)"
            % (stored_crc, computed), cause="crc")
    # CRC passed, so these fields are what the sender wrote — protocol
    # errors now mean an incompatible peer, not line noise.
    if magic != MAGIC:
        raise FrameRejected("bad frame magic %r" % (magic,),
                            cause="protocol")
    if version != VERSION:
        raise FrameRejected(
            "unsupported protocol version %d (speaking %d)"
            % (version, VERSION), cause="protocol")
    context = None
    offset = _HEADER.size
    if len(body) < offset + _CTX_LEN.size + _CRC.size:
        raise FrameRejected(
            "frame too short for its context length field",
            cause="protocol")
    (ctx_len,) = _CTX_LEN.unpack_from(body, offset)
    offset += _CTX_LEN.size
    if len(body) < offset + ctx_len + _CRC.size:
        raise FrameRejected(
            "frame claims a %d-byte context beyond its body" % ctx_len,
            cause="protocol")
    if ctx_len:
        try:
            context = json.loads(
                body[offset:offset + ctx_len].decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FrameRejected(
                "undecodable trace context: %s" % exc,
                cause="protocol") from exc
        if not isinstance(context, dict):
            raise FrameRejected(
                "trace context is not a JSON object", cause="protocol")
    offset += ctx_len
    payload = body[offset:-_CRC.size]
    if frame_type not in _FRAME_TYPES:
        raise FrameRejected("unknown frame type %d" % frame_type,
                            cause="protocol")
    return Frame(frame_type, sequence, payload, context, version)


def recv_exact(sock, count):
    """Read exactly ``count`` bytes or raise :class:`NetworkError`.

    A timeout or a peer close mid-read both tear the connection state
    (partial bytes cannot be resynchronized), so they surface as the
    same retryable failure: the caller reconnects and re-issues.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise NetworkError(
                "read timed out with %d of %d bytes pending"
                % (remaining, count)) from exc
        except OSError as exc:
            raise NetworkError("read failed: %s" % exc) from exc
        if not chunk:
            raise NetworkError(
                "peer closed with %d of %d bytes pending"
                % (remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
    """Read and decode one whole frame from ``sock``.

    Raises :class:`NetworkError` on timeout/close and
    :class:`FrameRejected` (``cause="oversize"``/``"protocol"``/
    ``"crc"``) on an untrustworthy frame.
    """
    (length,) = _PREFIX.unpack(recv_exact(sock, _PREFIX.size))
    if length > max_frame_bytes:
        raise FrameRejected(
            "frame claims %d bytes, above the %d-byte bound"
            % (length, max_frame_bytes), cause="oversize")
    if length < MIN_FRAME_BYTES:
        raise FrameRejected(
            "frame claims %d bytes, below the %d-byte minimum"
            % (length, MIN_FRAME_BYTES), cause="protocol")
    return decode_frame(recv_exact(sock, length))


def send_frame(sock, frame_type, sequence, payload=b"", context=None):
    """Encode and send one frame; raises :class:`NetworkError` on
    failure (timeout, reset, closed peer)."""
    try:
        sock.sendall(encode_frame(frame_type, sequence, payload,
                                  context=context))
    except socket.timeout as exc:
        raise NetworkError("send timed out") from exc
    except OSError as exc:
        raise NetworkError("send failed: %s" % exc) from exc
