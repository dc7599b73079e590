"""A pinned, strictly read-only view of another disk (one per session).

:class:`SnapshotDisk` is the storage face of a read session.  It pins a
commit sequence on the base disk at construction and serves every read
via :meth:`SimulatedDisk.read_snapshot`, so the view stays frozen at that
sequence no matter what the writer commits afterwards.

Queries join intermediate results in memory (:mod:`repro.joins.memory`),
so no read needs a page of its own and ``allocate``, ``write`` and ``free``
raise: read-committed-at-a-sequence, with no write-merge story.
"""

from repro.storage.disk import SimulatedDisk
from repro.storage.errors import PageNotFoundError, StorageError


class SnapshotDisk(SimulatedDisk):
    """Read-only view of ``base`` at a pinned commit sequence."""

    def __init__(self, base):
        super().__init__(base.page_size)
        self._base = base
        self.sequence = base.pin_snapshot()
        self._released = False
        # The pinned catalog can name no page at or past this frontier.
        with base._commit_lock:
            self._next_page_id = base._next_page_id

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Release the pin (idempotent)."""
        if not self._released:
            self._released = True
            self._base.release_snapshot(self.sequence)

    @property
    def closed(self):
        return self._released

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- SimulatedDisk surface -------------------------------------------------

    def _refuse(self, *_args):
        raise StorageError(
            "snapshot at sequence %d is read-only" % self.sequence)

    allocate = free = write = _write = _refuse

    def _read(self, page_id):
        return self._base.read_snapshot(page_id, self.sequence)

    def _check_exists(self, page_id):
        if self._released:
            raise StorageError(
                "I/O on a released snapshot (sequence %d)" % self.sequence)
        if not 1 <= page_id < self._next_page_id:
            raise PageNotFoundError(page_id)
