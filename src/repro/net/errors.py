"""Network-transport errors for the segment-shipping protocol.

Everything here subclasses
:class:`~repro.storage.errors.TransientIOError` **on purpose**: a
network fault — a refused connection, a read timeout, a frame that fails
its checksum — is survivable by reconnecting and re-issuing the request
(segment fetches are idempotent), so the replication retry stack's two
layers — :meth:`StandbyReplica._with_retry
<repro.storage.replication.StandbyReplica._with_retry>` (the one retry
and backoff; a :class:`SocketShipper <repro.net.shipper.SocketShipper>`
call is a single exchange), then cluster health suspicion — compose
without any new plumbing.  The
distinction the cluster layer *does* care about — a network flap versus
a dead node — is made by type: :func:`is_network_error` recognizes these
exceptions (directly or as the ``__cause__`` of a
:class:`~repro.storage.errors.ReplicationError`) so a short partition
walks the suspect ladder instead of tripping an instant failover.
"""

from repro.storage.errors import ReplicationError, TransientIOError


class NetworkError(TransientIOError):
    """A transport-level failure: connect refused/timed out, read timed
    out, the peer closed mid-frame, or the server reported itself busy.
    Retryable — the connection is torn down and the request re-issued."""


class FrameRejected(NetworkError):
    """A received frame was discarded instead of trusted.

    ``cause`` says why: ``"crc"`` (checksum mismatch — corruption in
    flight), ``"sequence"`` (the frame answers a different sequence than
    was requested — duplicated or reordered delivery), ``"type"`` (a
    response of the wrong kind), ``"protocol"`` (bad magic/version or a
    malformed header) or ``"oversize"`` (a claimed length beyond the
    frame bound).  Rejection is survivable: the connection is reset and
    the fetch repeated, so a duplicated/reordered/corrupted frame is
    *detected and counted* rather than applied.
    """

    def __init__(self, message, cause):
        super().__init__(message)
        self.cause = cause


def is_network_error(exc):
    """Is ``exc`` a network-transport failure (directly, or wrapped by a
    retry loop as the ``__cause__`` of a ReplicationError)?

    The cluster health machinery uses this to treat a partition blip
    differently from a dead process: network failures are never fatal
    and may use a laxer down threshold (see
    :class:`~repro.cluster.health.BackendHealth`).
    """
    if isinstance(exc, NetworkError):
        return True
    if isinstance(exc, ReplicationError):
        cause = exc.__cause__
        return isinstance(cause, NetworkError)
    return False
