"""Wire-format unit tests: framing, CRC, sequence echo, bounds.

Pure bytes-level tests of :mod:`repro.net.frames` — no live sockets
except a ``socketpair`` for the recv helpers.  Every rejection cause the
chaos harness relies on (``crc``, ``protocol``, ``oversize``,
``sequence``) is produced here deliberately so its detection is pinned
independently of the proxy's randomness.
"""

import socket
import struct

import pytest

from repro.net import (
    REQ_FETCH,
    REQ_LATEST,
    RESP_SEGMENT,
    FrameRejected,
    NetworkError,
    decode_frame,
    encode_frame,
    is_network_error,
)
from repro.net.frames import (
    MAGIC,
    MIN_FRAME_BYTES,
    VERSION,
    read_frame,
    recv_exact,
    send_frame,
)
from repro.storage.errors import ReplicationError, TransientIOError


def body_of(wire):
    """Strip the length prefix off an encoded frame."""
    (length,) = struct.unpack_from("<I", wire, 0)
    assert length == len(wire) - 4
    return wire[4:]


class TestCodec:
    def test_roundtrip_preserves_type_sequence_payload(self):
        wire = encode_frame(RESP_SEGMENT, 42, b"segment bytes")
        frame = decode_frame(body_of(wire))
        assert frame.type == RESP_SEGMENT
        assert frame.sequence == 42
        assert frame.payload == b"segment bytes"

    def test_empty_payload_roundtrip(self):
        frame = decode_frame(body_of(encode_frame(REQ_LATEST, 0)))
        assert frame.type == REQ_LATEST
        assert frame.sequence == 0
        assert frame.payload == b""

    def test_sequence_is_full_u64(self):
        big = 2 ** 63 + 17
        frame = decode_frame(body_of(encode_frame(REQ_FETCH, big)))
        assert frame.sequence == big

    def test_any_flipped_byte_is_caught_by_crc(self):
        wire = encode_frame(RESP_SEGMENT, 7, b"payload")
        body = body_of(wire)
        # Flip every byte position in turn: header, payload and the CRC
        # itself — all must fail closed, none may decode to wrong data.
        for index in range(len(body)):
            corrupted = bytearray(body)
            corrupted[index] ^= 0xFF
            with pytest.raises(FrameRejected) as info:
                decode_frame(bytes(corrupted))
            assert info.value.cause == "crc"

    def test_truncated_body_is_protocol_error(self):
        with pytest.raises(FrameRejected) as info:
            decode_frame(b"\x00" * (MIN_FRAME_BYTES - 1))
        assert info.value.cause == "protocol"

    def test_wrong_version_rejected_with_valid_crc(self):
        # Re-encode a frame with a bumped version and a *correct* CRC:
        # this is an incompatible peer, not line noise.
        import zlib

        header = struct.pack("<4sBBQ", MAGIC, 99, REQ_LATEST, 0)
        crc = zlib.crc32(header) & 0xFFFFFFFF
        body = header + struct.pack("<I", crc)
        with pytest.raises(FrameRejected) as info:
            decode_frame(body)
        assert info.value.cause == "protocol"
        assert "version" in str(info.value)

    def test_unknown_frame_type_rejected(self):
        frame = encode_frame(200, 1)  # type 200 encodes fine...
        with pytest.raises(FrameRejected) as info:
            decode_frame(body_of(frame))  # ...but never decodes
        assert info.value.cause == "protocol"


class TestTraceContextV2:
    """The v2 trace-context blob between header and payload."""

    def test_default_version_is_2_and_both_are_accepted(self):
        # One version: what is sent is what is accepted.
        assert VERSION == 2
        assert decode_frame(body_of(encode_frame(REQ_LATEST, 0))).version \
            == 2

    def test_v1_frame_is_rejected_as_an_incompatible_peer(self):
        # A CRC-valid frame in the retired v1 layout (no context field).
        import zlib

        body = struct.pack("<4sBBQ", MAGIC, 1, RESP_SEGMENT, 5) + b"seg"
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with pytest.raises(FrameRejected) as info:
            decode_frame(body + struct.pack("<I", crc))
        assert info.value.cause == "protocol"
        assert "version 1" in str(info.value)

    def test_context_roundtrips(self):
        ctx = {"trace": "ab12cd34ef56ab78", "span": 7, "node": "node-1"}
        wire = encode_frame(REQ_FETCH, 11, b"payload", context=ctx)
        frame = decode_frame(body_of(wire))
        assert frame.version == 2
        assert frame.context == ctx
        assert frame.type == REQ_FETCH
        assert frame.sequence == 11
        assert frame.payload == b"payload"

    def test_v2_frame_without_context_decodes_to_none(self):
        frame = decode_frame(body_of(encode_frame(REQ_LATEST, 0)))
        assert frame.version == 2
        assert frame.context is None

    def test_context_flipped_bytes_still_caught_by_crc(self):
        ctx = {"trace": "deadbeefdeadbeef", "span": 3}
        body = body_of(encode_frame(REQ_FETCH, 2, b"p", context=ctx))
        for index in range(len(body)):
            corrupted = bytearray(body)
            corrupted[index] ^= 0xFF
            with pytest.raises(FrameRejected) as info:
                decode_frame(bytes(corrupted))
            assert info.value.cause == "crc"

    def test_context_length_beyond_body_rejected(self):
        # Hand-build a v2 frame whose ctx_len points past the body but
        # whose CRC is valid: must fail closed as a protocol error.
        import zlib

        header = struct.pack("<4sBBQ", MAGIC, 2, REQ_LATEST, 0)
        body = header + struct.pack("<H", 60000)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with pytest.raises(FrameRejected) as info:
            decode_frame(body + struct.pack("<I", crc))
        assert info.value.cause == "protocol"

    def test_non_object_context_rejected(self):
        import zlib

        blob = b"[1, 2, 3]"
        header = struct.pack("<4sBBQ", MAGIC, 2, REQ_LATEST, 0)
        body = header + struct.pack("<H", len(blob)) + blob
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with pytest.raises(FrameRejected) as info:
            decode_frame(body + struct.pack("<I", crc))
        assert info.value.cause == "protocol"


class TestSocketHelpers:
    def make_pair(self):
        left, right = socket.socketpair()
        left.settimeout(1.0)
        right.settimeout(1.0)
        return left, right

    def test_send_and_read_frame_across_a_socket(self):
        left, right = self.make_pair()
        try:
            send_frame(left, RESP_SEGMENT, 9, b"abc")
            frame = read_frame(right)
            assert (frame.type, frame.sequence, frame.payload) \
                == (RESP_SEGMENT, 9, b"abc")
        finally:
            left.close()
            right.close()

    def test_recv_exact_reassembles_split_chunks(self):
        left, right = self.make_pair()
        try:
            wire = encode_frame(RESP_SEGMENT, 3, b"x" * 100)
            # Dribble the frame a few bytes at a time.
            for start in range(0, len(wire), 7):
                left.sendall(wire[start:start + 7])
            assert read_frame(right).payload == b"x" * 100
        finally:
            left.close()
            right.close()

    def test_peer_close_mid_frame_is_network_error(self):
        left, right = self.make_pair()
        try:
            wire = encode_frame(RESP_SEGMENT, 3, b"payload")
            left.sendall(wire[:10])
            left.close()
            with pytest.raises(NetworkError, match="pending"):
                read_frame(right)
        finally:
            right.close()

    def test_read_timeout_is_network_error(self):
        left, right = self.make_pair()
        right.settimeout(0.05)
        try:
            with pytest.raises(NetworkError, match="timed out"):
                recv_exact(right, 4)
        finally:
            left.close()
            right.close()

    def test_oversize_claim_rejected_without_reading_body(self):
        left, right = self.make_pair()
        try:
            left.sendall(struct.pack("<I", 1 << 30))
            with pytest.raises(FrameRejected) as info:
                read_frame(right, max_frame_bytes=1024)
            assert info.value.cause == "oversize"
        finally:
            left.close()
            right.close()


class TestErrorTaxonomy:
    def test_network_errors_are_transient(self):
        # Load-bearing: the replica's retry loop and the cluster's health
        # machinery absorb network faults because of this subclassing.
        assert issubclass(NetworkError, TransientIOError)
        assert issubclass(FrameRejected, NetworkError)

    def test_is_network_error_sees_through_replication_wrapping(self):
        direct = NetworkError("boom")
        assert is_network_error(direct)
        wrapped = ReplicationError("ship failed after 4 retries")
        wrapped.__cause__ = direct
        assert is_network_error(wrapped)
        assert not is_network_error(ReplicationError("plain"))
        assert not is_network_error(TransientIOError("disk blip"))
