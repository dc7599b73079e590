"""Commit groups: the encoding, the segment store, and the apply.

Everything a :class:`~repro.storage.disk.FileDisk` commit is outside the
disk's own staging lives here.  A *commit group* is the full set of page
images (plus the new superblock, recorded as page id 0) that one
``sync()`` makes durable together:

```
group header   "XRJL" magic, sequence number, page count
page records   page id (u64) + raw page image (page_size bytes), repeated
group footer   "XRJC" magic, CRC-32 over header + records
```

Every durable ``sync()`` walks one pipeline:

1. **segment** — :meth:`Archive.append` writes the encoded group to its
   own ``seg-<sequence>.xrseg`` file, fsyncs it, and fsyncs the segment
   directory so the file's entry is durable too (the directory's *own*
   entry is fsynced into its parent when :class:`Archive` creates it);
2. **apply** — :func:`_apply_records` writes every record to the data
   file at its page offset and fsyncs it;
3. **drop or keep** — ``durability="journal"`` unlinks the segment (a
   private one-slot write-ahead log), ``durability="archive"`` keeps it
   as history: the replay stream for point-in-time recovery and the
   shipping stream for standby replicas (:mod:`repro.storage.backup`,
   :mod:`repro.storage.replication`).

A crash at any point leaves one of three states, all recoverable from
the *newest* segment alone:

* segment missing or torn (crash during step 1) — the group never became
  durable; recovery deletes it and the data file still holds the
  previous commit;
* segment complete, data file partially applied (crash during step 2) —
  recovery replays the whole group; applying page images is idempotent;
* segment complete and applied (crash before the unlink reached the
  disk, or archive mode) — recovery replays harmlessly.

Validity of a group is established by length and CRC alone, so a torn
segment write can never masquerade as a committed group.
"""

import errno
import os
import re
import struct
import zlib

from repro.storage.errors import DiskFullError

_GROUP_MAGIC = b"XRJL"
_COMMIT_MAGIC = b"XRJC"
_HEADER = struct.Struct("<4sQI")   # magic, commit sequence, page count
_RECORD = struct.Struct("<Q")      # page id (0 = superblock)
_FOOTER = struct.Struct("<4sI")    # commit magic, CRC-32 of header+records

#: ``seg-<sequence>.xrseg`` — zero-padded so lexical order is replay order.
SEGMENT_SUFFIX = ".xrseg"
_SEGMENT_RE = re.compile(r"^seg-(\d{16})\.xrseg$")


def segment_name(sequence):
    """Canonical archive file name for one commit group."""
    return "seg-%016d%s" % (sequence, SEGMENT_SUFFIX)


def encode_group(sequence, records, page_size, fault_filter=None):
    """Serialize one commit group; returns ``(body, crash)``.

    ``fault_filter`` is the physical-write interception hook wired up by
    :class:`~repro.storage.faults.FaultInjectingDisk`: it sees every page
    record and may tear it (``crash`` True means the caller must persist
    the possibly-torn body and then simulate a kill).
    """
    body = bytearray()
    body += _HEADER.pack(_GROUP_MAGIC, sequence, len(records))
    crash = False
    for page_id in sorted(records):
        image = bytes(records[page_id])
        if len(image) < page_size:
            image += bytes(page_size - len(image))
        if fault_filter is not None:
            image, crash = fault_filter("segment", page_id, image)
        body += _RECORD.pack(page_id)
        body += image
        if crash:
            break
    if not crash:
        body += _FOOTER.pack(_COMMIT_MAGIC,
                             zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    return bytes(body), crash


def decode_group(blob, page_size):
    """Decode one serialized commit group.

    Returns ``(sequence, {page_id: image})`` for a complete, checksum-valid
    group; ``None`` for anything else — empty, torn mid-record, or failing
    the CRC.  Callers who need to distinguish "empty" from "torn" check
    ``len(blob)`` themselves.
    """
    size = len(blob)
    if size < _HEADER.size + _FOOTER.size:
        return None
    magic, sequence, count = _HEADER.unpack_from(blob, 0)
    if magic != _GROUP_MAGIC:
        return None
    record_size = _RECORD.size + page_size
    body_size = _HEADER.size + count * record_size
    if size < body_size + _FOOTER.size:
        return None
    commit_magic, stored_crc = _FOOTER.unpack_from(blob, body_size)
    if commit_magic != _COMMIT_MAGIC:
        return None
    if zlib.crc32(blob[:body_size]) & 0xFFFFFFFF != stored_crc:
        return None
    records = {}
    offset = _HEADER.size
    for _ in range(count):
        (page_id,) = _RECORD.unpack_from(blob, offset)
        offset += _RECORD.size
        records[page_id] = blob[offset : offset + page_size]
        offset += page_size
    return sequence, records


#: Verdicts of :func:`classify_segment`, one per thing a segment stream
#: position can mean to whoever replays it.
APPLY = "apply"            # decodes, checksums and is filed where it belongs
TORN_HEAD = "torn-head"    # the undecodable newest segment: never acked
CORRUPT = "corrupt"        # undecodable below the head, or mis-filed
MISSING = "missing"        # absent at or above the retention floor: lost
PRUNED = "pruned"          # absent below the retention floor: retention


def classify_segment(sequence, blob, page_size, head, oldest):
    """``(verdict, group)`` for segment ``sequence`` of a stream whose
    newest sequence is ``head`` and retention floor ``oldest``.

    ``blob`` is the fetched bytes (None: the source has no such segment);
    ``group`` is the decoded ``(sequence, records)`` for :data:`APPLY`,
    else None.  Only the newest segment can be torn, so an undecodable
    one below the head — or one filed under the wrong sequence — is
    :data:`CORRUPT`.  Callers keep only their reaction to the verdict.
    """
    if blob is None:
        if oldest is None or oldest > sequence:
            return PRUNED, None
        return MISSING, None
    group = decode_group(blob, page_size)
    if group is None:
        return (TORN_HEAD if sequence == head else CORRUPT), None
    if group[0] != sequence:
        return CORRUPT, None
    return APPLY, group


def fsync_directory(path):
    """fsync a directory so entries created inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _apply_records(fd, records, page_size, fault_filter=None):
    """Write one decoded group's page images to a data file and fsync it.

    The one place a commit group reaches a data file: ``FileDisk.sync()``,
    recovery-on-open, the standby's ``apply_group``, ``backup.restore``
    and the in-place superblock write (a one-record group) all land here.
    Writing is idempotent, which is what lets recovery replay a group a
    crash left half applied.
    ``fault_filter`` may tear a write or kill the run, as for
    :func:`encode_group`.  Returns the number of pages written.
    """
    for page_id in sorted(records):
        image, crash = records[page_id], False
        if fault_filter is not None:
            image, crash = fault_filter("apply", page_id, image)
        os.pwrite(fd, image, page_id * page_size)
        if crash:
            from repro.storage.faults import CrashPoint

            raise CrashPoint("killed while applying a commit group")
    os.fsync(fd)
    return len(records)


class Archive:
    """Sequence-numbered commit-group segments in a directory.

    Every group is written to its own ``seg-<sequence>.xrseg`` file
    (fsynced, with the directory entry fsynced too) *before* being
    applied to the data file.  ``durability="archive"`` keeps every
    segment, so the directory holds the full history of committed groups
    since its creation — the replay stream for point-in-time recovery
    and the shipping stream for standby replicas; ``durability="journal"``
    drops each one as soon as it is applied.

    A torn trailing segment (crash while writing it) is detected by the
    group CRC; it was never acknowledged, so recovery deletes it and
    counts it.

    An archive is also the shipper a standby on the same filesystem
    tails (:data:`repro.storage.replication.LocalDirShipper`).
    """

    def __init__(self, directory, page_size, fault_filter=None):
        self.directory = directory
        self.page_size = page_size
        self._filter = fault_filter
        created = not os.path.isdir(directory)
        if created:
            os.makedirs(directory, exist_ok=True)
            fsync_directory(os.path.dirname(os.path.abspath(directory))
                            or ".")
        #: Directory fsyncs paid so far (creation, appends, synced removes).
        self.dir_fsyncs = 1 if created else 0

    # -- writing ---------------------------------------------------------------

    def append(self, sequence, records):
        """Write one commit group as the segment for ``sequence``;
        returns the number of page records written.

        Out of space (``ENOSPC``) raises a typed
        :class:`~repro.storage.errors.DiskFullError` after unlinking the
        partial segment file, so a failed commit never leaves a torn
        segment for tailing standbys or recovery to trip over.
        """
        path = os.path.join(self.directory, segment_name(sequence))
        try:
            body, crash = encode_group(sequence, records, self.page_size,
                                       self._filter)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.pwrite(fd, body, 0)
                os.fsync(fd)
            finally:
                os.close(fd)
            fsync_directory(self.directory)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            try:
                os.remove(path)
            except OSError:
                pass
            raise DiskFullError(
                "writing segment %d hit ENOSPC: %s"
                % (sequence, exc)) from exc
        self.dir_fsyncs += 1
        if crash:
            from repro.storage.faults import CrashPoint

            raise CrashPoint("killed while writing a commit-group segment")
        return len(records)

    # -- reading ---------------------------------------------------------------

    def sequences(self):
        """Sorted sequence numbers of every segment present."""
        out = []
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return out
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        out.sort()
        return out

    def segment_path(self, sequence):
        return os.path.join(self.directory, segment_name(sequence))

    def fetch(self, sequence):
        """The raw segment bytes (shipping payload), or None if missing;
        what they mean is :func:`classify_segment`'s call."""
        try:
            with open(self.segment_path(sequence), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def close(self):
        """Nothing to release: every read opens and closes its own file."""

    def latest_sequence(self):
        sequences = self.sequences()
        return sequences[-1] if sequences else None

    def oldest_sequence(self):
        """Lowest retained sequence, or None for an empty archive.

        The floor of the replay window: anything below it was pruned (or
        never existed) and cannot be shipped or replayed from here.
        """
        sequences = self.sequences()
        return sequences[0] if sequences else None

    def bytes_on_disk(self):
        """Total size of every retained segment file, in bytes."""
        total = 0
        for seq in self.sequences():
            try:
                total += os.path.getsize(self.segment_path(seq))
            except OSError:
                pass  # pruned concurrently
        return total

    def replay_window(self):
        """The retention state at a glance: ``(oldest, newest, count,
        bytes)`` — both sequences None for an empty archive."""
        sequences = self.sequences()
        if not sequences:
            return None, None, 0, 0
        return (sequences[0], sequences[-1], len(sequences),
                self.bytes_on_disk())

    def remove(self, sequence, sync_directory=True):
        """Delete one segment (recovery discards torn trailing ones).

        The unlink is made durable with a directory fsync (counted in
        :attr:`dir_fsyncs`), matching the hygiene of :meth:`append` — a
        crash after pruning must not resurrect directory entries the
        retention horizon already declared gone.  ``sync_directory=False``
        lets a batch caller (:meth:`prune_upto`) pay one fsync for many
        unlinks.
        """
        try:
            os.remove(self.segment_path(sequence))
        except FileNotFoundError:
            return
        if sync_directory:
            fsync_directory(self.directory)
            self.dir_fsyncs += 1

    def prune_upto(self, sequence):
        """Drop every segment with a sequence <= ``sequence`` (retention).

        Returns the number of segments removed.  Pruning shortens the
        replay window: restores then need a base backup at or beyond the
        prune point.  One directory fsync covers the whole batch.
        """
        removed = 0
        for seq in self.sequences():
            if seq <= sequence:
                self.remove(seq, sync_directory=False)
                removed += 1
        if removed:
            fsync_directory(self.directory)
            self.dir_fsyncs += 1
        return removed
