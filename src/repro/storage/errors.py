"""Exception hierarchy for the storage substrate."""


class StorageError(Exception):
    """Base class for all storage-layer failures."""


class PageNotFoundError(StorageError):
    """A page id was requested that has never been allocated (or was freed)."""

    def __init__(self, page_id):
        super().__init__("page %r does not exist" % (page_id,))
        self.page_id = page_id


class PageFullError(StorageError):
    """An entry was pushed into a page that has no remaining capacity."""


class PageDecodeError(StorageError):
    """On-disk bytes could not be decoded into a typed page object, or a
    page object does not encode into an image (payload too large, a field
    out of its record's range)."""


class ChecksumError(PageDecodeError):
    """A page image failed CRC-32 verification (torn write or bit rot).

    Subclasses :class:`PageDecodeError` because a checksum mismatch means
    the bytes cannot be trusted to decode into anything; callers that
    handle decode failures handle corruption the same way.
    """

    def __init__(self, message, page_id=None):
        super().__init__(message)
        self.page_id = page_id


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent on-disk state
    (missing or corrupt superblock, undecodable catalog root, ...)."""


class TransientIOError(StorageError):
    """A retryable I/O failure (injected or environmental).

    Raised by :class:`~repro.storage.faults.FaultInjectingDisk` in
    transient mode (``fail_next``) and honoured by retry/backoff loops —
    the replication apply path, future scrubber retries.  Unlike
    :class:`~repro.storage.faults.CrashPoint`, the operation may simply be
    retried: no state was lost.
    """


class DiskFullError(StorageError):
    """The volume ran out of space (``ENOSPC``) during a commit.

    Raised instead of a raw :class:`OSError` by the segment/apply
    commit path after cleaning up any partial on-disk state: nothing of
    the failed group became durable, the disk's in-memory staging is
    intact, and the commit may simply be retried once space is freed.
    Not a :class:`TransientIOError` — backing off and retrying blindly
    cannot help until an operator (or the retention subsystem) frees
    space — but also never fatal: the database stays readable.
    """


class ReadOnlyError(StorageError):
    """A write was rejected because the database degraded to read-only
    (disk full).  Reads keep working; writes resume automatically once
    a commit succeeds again (space was freed)."""


def is_disk_full_error(exc):
    """Is ``exc`` — or anything in its cause chain — a disk-full fault?

    Sees through wrapping layers (``ClusterWriteError`` et al. chain
    with ``raise ... from``), and recognizes a raw ``OSError`` carrying
    ``errno.ENOSPC`` that escaped before being typed.
    """
    import errno

    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, (DiskFullError, ReadOnlyError)):
            return True
        if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
            return True
        exc = exc.__cause__ or exc.__context__
    return False


class BackupError(StorageError):
    """Hot backup or restore could not produce a consistent snapshot."""


class ReplicationError(StorageError):
    """Log shipping or standby apply failed non-transiently."""


class DivergenceError(ReplicationError):
    """The standby refused to promote: the archived stream has a sequence
    gap or a checksum-corrupt segment between its position and the
    primary's head, so catching up would silently lose commits."""


class BufferPoolError(StorageError):
    """Buffer-pool protocol violation (e.g. evicting a pinned page)."""
