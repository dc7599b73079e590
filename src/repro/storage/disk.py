"""Simulated page-granular disks with physical I/O accounting.

Two implementations are provided behind a common abstract interface:

* :class:`InMemoryDisk` — pages live in a Python dict; fast, used by tests and
  benchmarks.  I/O counters still tick, so page-miss accounting is identical
  to the file-backed variant.
* :class:`FileDisk` — pages live in a real file on the local filesystem,
  written with ``os.pwrite``-style positioned I/O, fronted by a superblock
  and write-ahead commit-group segments (:mod:`repro.storage.journal`) so
  that every ``sync()`` is an atomic multi-page commit and a crash at any
  instant either replays or discards a whole commit group on reopen.

The paper's testbed performed direct disk I/O on Windows XP; the relevant
observable for the evaluation is the *number* of physical page transfers,
which both implementations count exactly.
"""

import errno
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field

from repro.storage.errors import (
    DiskFullError,
    PageNotFoundError,
    RecoveryError,
    StorageError,
    TransientIOError,
)
from repro.storage.journal import (Archive, _apply_records, classify_segment,
                                   decode_group)
from repro.storage.versions import PageVersionStore

DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOStats:
    """Counters for physical page transfers performed by a disk."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    def reset(self):
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0

    @property
    def total_transfers(self):
        """Total physical page movements (reads + writes)."""
        return self.reads + self.writes

    def snapshot(self):
        """Return an independent copy of the current counter values."""
        return IOStats(self.reads, self.writes, self.allocations, self.frees)

    def delta(self, earlier):
        """Counters accumulated since the ``earlier`` snapshot."""
        return IOStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.allocations - earlier.allocations,
            self.frees - earlier.frees,
        )


class SimulatedDisk:
    """Abstract page-granular disk.

    Pages are fixed-size byte blocks addressed by integer page ids.  Page id 0
    is reserved so that 0 can serve as a nil pointer in on-disk structures.
    """

    #: Whether :meth:`pin_snapshot` works on this disk.  Overridden by
    #: :class:`FileDisk` for ``durability="none"`` (in-place writes destroy
    #: committed images, so there is nothing consistent to pin).
    supports_snapshots = True

    def __init__(self, page_size=DEFAULT_PAGE_SIZE):
        if page_size < 64:
            raise StorageError("page size %d is too small" % page_size)
        self.page_size = page_size
        self.stats = IOStats()
        self._next_page_id = 1
        self._freed = []
        self._commit_seq = 0
        #: Pre-commit page images retained for pinned snapshots.
        self.versions = PageVersionStore()
        #: Serializes commits against snapshot pin/read/release.  Held for
        #: the whole apply so a concurrent reader can never see a torn or
        #: half-applied commit group.
        self._commit_lock = threading.RLock()

    # -- allocation ---------------------------------------------------------

    def allocate(self):
        """Reserve a fresh page id (contents undefined until first write)."""
        self.stats.allocations += 1
        if self._freed:
            page_id = self._freed.pop()
        else:
            page_id = self._next_page_id
            self._next_page_id += 1
        self._on_allocate(page_id)
        return page_id

    def free(self, page_id):
        """Release a page id for reuse."""
        self._check_exists(page_id)
        self.stats.frees += 1
        self._on_free(page_id)
        self._freed.append(page_id)

    # -- transfers ----------------------------------------------------------

    def read(self, page_id):
        """Read one physical page; returns exactly ``page_size`` bytes."""
        self._check_exists(page_id)
        self.stats.reads += 1
        return self._read(page_id)

    def write(self, page_id, data):
        """Write one physical page; ``data`` is padded to ``page_size``."""
        self._check_exists(page_id)
        if len(data) > self.page_size:
            raise StorageError(
                "page payload of %d bytes exceeds page size %d"
                % (len(data), self.page_size)
            )
        self.stats.writes += 1
        if len(data) < self.page_size:
            data = bytes(data) + b"\x00" * (self.page_size - len(data))
        self._write(page_id, bytes(data))

    @property
    def allocated_page_count(self):
        """Number of currently live (allocated, un-freed) pages."""
        return self._next_page_id - 1 - len(self._freed)

    # -- snapshots -----------------------------------------------------------

    @property
    def commit_sequence(self):
        """Sequence number of the last committed group."""
        return self._commit_seq

    def pin_snapshot(self):
        """Pin the last committed sequence and return it.

        Until the matching :meth:`release_snapshot`, :meth:`read_snapshot`
        at the returned sequence keeps returning the page images that were
        committed as of this call, no matter how many commit groups land
        on top — the disk retains pre-commit copies of every page those
        later commits overwrite.  Writes staged but not yet synced are
        invisible to the pin, exactly as they would be to a crash.
        """
        if not self.supports_snapshots:
            raise StorageError(
                "snapshots need a commit point; durability=\"none\" writes "
                "in place and cannot pin one"
            )
        with self._commit_lock:
            return self.versions.pin(self._commit_seq)

    def release_snapshot(self, sequence):
        """Release one pin taken by :meth:`pin_snapshot`; pre-images kept
        only for older pins are pruned immediately."""
        with self._commit_lock:
            self.versions.release(sequence)

    def read_snapshot(self, page_id, sequence):
        """Read a page as committed at pinned ``sequence``.

        Counts as one physical read.  The caller must hold a pin on
        ``sequence``; no liveness check is made against the *current*
        allocation table, because a page freed after the pin is exactly
        the kind of page a snapshot must still be able to read.
        """
        with self._commit_lock:
            image = self.versions.lookup(page_id, sequence)
            if image is None:
                image = self._committed_image(page_id)
            self.stats.reads += 1
            return image

    def _committed_image(self, page_id):
        """The live committed image of a page (staged writes excluded)."""
        raise NotImplementedError

    # -- test hooks ----------------------------------------------------------

    def peek(self, page_id):
        """Raw bytes of a page, bypassing the I/O counters (test hook).

        For a :class:`FileDisk` this reads the *persisted* image, ignoring
        any writes staged since the last ``sync()`` — what a crashed
        process's successor would see.
        """
        self._check_exists(page_id)
        return self._peek(page_id)

    def poke(self, page_id, data):
        """Overwrite a page's raw bytes, bypassing counters and journaling
        (test hook: simulates media corruption happening under the engine).
        """
        self._check_exists(page_id)
        if len(data) > self.page_size:
            raise StorageError(
                "poke payload of %d bytes exceeds page size %d"
                % (len(data), self.page_size)
            )
        if len(data) < self.page_size:
            data = bytes(data) + b"\x00" * (self.page_size - len(data))
        self._poke(page_id, bytes(data))

    # -- hooks for concrete disks -------------------------------------------

    def _on_allocate(self, page_id):
        raise NotImplementedError

    def _on_free(self, page_id):
        raise NotImplementedError

    def _read(self, page_id):
        raise NotImplementedError

    def _write(self, page_id, data):
        raise NotImplementedError

    def _check_exists(self, page_id):
        raise NotImplementedError

    def _peek(self, page_id):
        return self._read(page_id)

    def _poke(self, page_id, data):
        self._write(page_id, data)


class InMemoryDisk(SimulatedDisk):
    """Disk whose pages live in a dictionary.

    Writes are staged in ``_pending`` and folded into the committed page
    dict by :meth:`sync`, mirroring :class:`FileDisk`'s journal-mode
    commit points so snapshots (:meth:`pin_snapshot`) work identically on
    both disks.  Unlike the file-backed disk there is no durability story
    — ``sync`` never touches the filesystem — and reads always see staged
    writes first, so single-threaded callers that never sync observe the
    exact pre-staging behavior.
    """

    def __init__(self, page_size=DEFAULT_PAGE_SIZE):
        super().__init__(page_size)
        self._pages = {}
        self._pending = {}
        self._pending_frees = set()

    def sync(self):
        """Fold staged writes and frees into the committed images as one
        commit group; returns the number of pages committed."""
        with self._commit_lock:
            if not self._pending and not self._pending_frees:
                return 0
            self._commit_seq += 1
            upto = self._commit_seq - 1
            pinned = self.versions.pinned
            for page_id, data in self._pending.items():
                if pinned:
                    old = self._pages.get(page_id)
                    if old is not None:
                        self.versions.record(page_id, upto, old)
                self._pages[page_id] = data
            for page_id in self._pending_frees:
                old = self._pages.pop(page_id, None)
                if pinned and old is not None:
                    self.versions.record(page_id, upto, old)
            committed = len(self._pending)
            self._pending.clear()
            self._pending_frees.clear()
            return committed

    def _on_allocate(self, page_id):
        # Allocation stages zeroes like any other write: committed images
        # change only at sync(), so a snapshot pinned mid-transaction
        # still reads the old content of a recycled page id.
        self._pending_frees.discard(page_id)
        self._pending[page_id] = bytes(self.page_size)

    def _on_free(self, page_id):
        # The free itself is staged too — the committed image must stay
        # readable (by snapshots pinned *after* this free but before the
        # commit that contains it) until sync() retires it, recording the
        # pre-image for any pins then outstanding.
        with self._commit_lock:
            self._pending.pop(page_id, None)
            if page_id in self._pages:
                self._pending_frees.add(page_id)

    def _read(self, page_id):
        staged = self._pending.get(page_id)
        if staged is not None:
            return staged
        return self._pages[page_id]

    def _write(self, page_id, data):
        self._pending[page_id] = data

    def _poke(self, page_id, data):
        """Corrupt the committed image, dropping any staged write."""
        self._pending.pop(page_id, None)
        self._pages[page_id] = data

    def _committed_image(self, page_id):
        image = self._pages.get(page_id)
        if image is None:
            raise PageNotFoundError(page_id)
        return image

    def _check_exists(self, page_id):
        if page_id in self._pending:
            return
        if page_id not in self._pages or page_id in self._pending_frees:
            raise PageNotFoundError(page_id)


@dataclass
class RecoveryStats:
    """What recovery-on-open found and did (``FileDisk.recovery_stats``)."""

    replayed_groups: int = 0
    replayed_pages: int = 0
    discarded_groups: int = 0
    free_pages_recovered: int = 0
    leaked_pages: int = 0
    #: Non-empty commit-group segments that failed to decode (torn or
    #: corrupt).  Always <= ``discarded_groups``; surfaced separately so a
    #: silent discard is still observable (``journal_torn_groups`` metric).
    torn_groups: int = 0

    @property
    def clean(self):
        """True when the file needed no group replay or discard."""
        return not (self.replayed_groups or self.discarded_groups)


@dataclass
class DurabilityStats:
    """Physical write accounting behind the logical ``IOStats`` counters."""

    commits: int = 0
    logged_pages: int = 0    # page images written to commit-group segments
    applied_pages: int = 0   # page images applied to the data file
    direct_pages: int = 0    # in-place writes (durability="none" only)
    superblock_writes: int = 0

    @property
    def physical_page_writes(self):
        """Total page-sized writes that reached the operating system."""
        return (self.logged_pages + self.applied_pages
                + self.direct_pages + self.superblock_writes)


#: On-disk superblock layout: magic, version, crc, page size, commit
#: sequence, next page id, free-list length, leaked-page count; the free
#: list (u32 page ids) follows.  The crc is a CRC-32 of the whole
#: superblock image with the crc field zeroed, as for regular pages.
_SUPERBLOCK = struct.Struct("<4sHIIQQII")
_SUPERBLOCK_MAGIC = b"XRSB"
_SUPERBLOCK_VERSION = 1
_SB_CRC_OFFSET = 6  # after magic (4s) + version (H)
_FREE_ID_SIZE = 4  # u32 page ids


def decode_superblock(image):
    """Decode a superblock page image into a plain dict (checks included).

    ``image`` must hold the full superblock page (its own ``page_size``
    field tells how long that is).  Raises
    :class:`~repro.storage.errors.RecoveryError` on a bad magic, version
    or CRC — the checks recovery, backups and log shipping rely on to
    refuse a corrupt base.
    """
    if len(image) < _SUPERBLOCK.size:
        raise RecoveryError("superblock image is %d bytes; header needs %d"
                            % (len(image), _SUPERBLOCK.size))
    (magic, version, stored_crc, page_size, seq, next_id,
     free_count, leaked) = _SUPERBLOCK.unpack_from(image, 0)
    if magic != _SUPERBLOCK_MAGIC:
        raise RecoveryError("no superblock magic")
    if version != _SUPERBLOCK_VERSION:
        raise RecoveryError("superblock version %d unsupported" % version)
    if len(image) < page_size:
        raise RecoveryError("superblock image is %d bytes; page size is %d"
                            % (len(image), page_size))
    page = bytearray(image[:page_size])
    struct.pack_into("<I", page, _SB_CRC_OFFSET, 0)
    if zlib.crc32(bytes(page)) & 0xFFFFFFFF != stored_crc:
        raise RecoveryError("superblock checksum mismatch")
    return {
        "page_size": page_size,
        "sequence": seq,
        "next_page_id": next_id,
        "leaked": leaked,
        "free_list": list(struct.unpack_from("<%dI" % free_count, page,
                                             _SUPERBLOCK.size)),
    }


#: ``durability="journal"`` keeps its in-flight segment in this private
#: directory beside the data file.
_WAL_SUFFIX = ".wal"


def _drop_segments(store):
    """The retain-nothing policy.  No directory fsync: a segment the crash
    resurrects is the newest and already applied, so it replays idempotently.
    """
    for sequence in store.sequences():
        store.remove(sequence, sync_directory=False)


class FileDisk(SimulatedDisk):
    """Disk whose pages live in a single file, with crash-safe commits.

    The file starts with a superblock (at offset 0; page ``n`` lives at
    offset ``n * page_size``) recording the allocation frontier and the
    free list, so freed pages survive a close and are recycled across
    sessions.  In both durable modes writes are *staged* in memory and
    made durable only by :meth:`sync`, which commits every staged page
    plus the new superblock as one atomic group: write the group to its
    own segment file + fsync (:class:`~repro.storage.journal.Archive`),
    apply it to the data file + fsync, then drop or keep the segment.
    Reopening the file replays a committed group the crash left
    unapplied, or discards a torn one, and reports what it did in
    :attr:`recovery_stats`.

    ``durability="journal"`` (the default) drops each segment once it is
    applied; its segment directory (``<path>.wal``) is private and never
    holds more than the in-flight group.

    ``durability="archive"`` *keeps* every segment in an archive
    directory (``<path>.archive`` by default) — the replay stream
    consumed by hot backups, point-in-time recovery
    (:mod:`repro.storage.backup`) and standby replicas
    (:mod:`repro.storage.replication`).

    ``durability="none"`` is the unjournaled baseline: writes go in place
    immediately and only the superblock is maintained — a crash can tear
    pages (detected later by page checksums, but not repaired).
    """

    def __init__(self, path, page_size=DEFAULT_PAGE_SIZE,
                 durability="journal", archive_dir=None):
        if durability not in ("journal", "archive", "none"):
            raise StorageError("unknown durability mode %r" % durability)
        super().__init__(page_size)
        self._path = path
        self.durability = durability
        self.journaled = durability != "none"
        self.recovery_stats = RecoveryStats()
        self.durability_stats = DurabilityStats()
        #: Physical-write interception hook installed by
        #: :class:`~repro.storage.faults.FaultInjectingDisk` (or None).
        self.fault_hook = None
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._pending = {}       # page_id -> staged image (durable modes)
        self._meta_dirty = False
        self._commit_seq = 0
        self._live = set()
        #: Where a staged group becomes durable, in both durable modes.
        self._archive = None
        if self.journaled:
            directory = path + _WAL_SUFFIX
            if durability == "archive":
                directory = archive_dir or path + ".archive"
            self._archive = Archive(directory, page_size,
                                    fault_filter=self._filter_physical)
        if os.fstat(self._fd).st_size == 0:
            self._write_superblock_direct()
        else:
            self._recover()

    @property
    def archive(self):
        """The commit-group :class:`~repro.storage.journal.Archive`
        (``durability="archive"`` only; None otherwise — journal mode's
        segments are private and gone once applied)."""
        return self._archive if self.durability == "archive" else None

    @property
    def supports_snapshots(self):
        # In-place writes destroy committed images the moment they land,
        # so there is no stable state for a pin to name.
        return self.journaled

    @property
    def path(self):
        return self._path

    @property
    def closed(self):
        return self._fd is None

    def close(self):
        """Commit staged writes and release the file descriptor
        (idempotent)."""
        if self._fd is not None:
            self.sync()
            self.abort()

    def abort(self):
        """Drop staged writes and close *without* committing.

        Simulates the process image vanishing: whatever the last ``sync``
        made durable is all a successor will see.  Used by the
        fault-injection harness after a :class:`CrashPoint`.
        """
        self._pending.clear()
        self._meta_dirty = False
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- commit protocol -----------------------------------------------------

    def sync(self):
        """Make every write since the last sync durable; returns pages
        committed.

        In the durable modes this is the atomic commit point: staged
        pages and the new superblock are written to a segment, fsynced,
        applied and fsynced, so a crash anywhere leaves either the
        previous or the new state.  In ``durability="none"`` mode only
        the superblock is rewritten.
        """
        if self._fd is None:
            raise StorageError("sync on a closed disk")
        if not self.journaled:
            if self._meta_dirty:
                self._write_superblock_direct()
            return 0
        if not self._pending and not self._meta_dirty:
            return 0
        # The commit lock spans the whole commit — sequence bump through
        # apply — so a concurrent pin_snapshot() can never name a sequence
        # whose pages are not yet (or only half) in the data file.
        with self._commit_lock:
            self._commit_seq += 1
            records = dict(self._pending)
            records[0] = self._superblock_image()
            try:
                self.durability_stats.logged_pages += self._archive.append(
                    self._commit_seq, records)
            except (TransientIOError, DiskFullError):
                # Nothing became durable (a transient fault fires before
                # any byte is written; the archive unlinks its partial
                # segment on ENOSPC), so the sequence number must not be
                # consumed — a retried sync() reuses it, keeping the
                # archive gap-free.  Staged writes stay in _pending and
                # the database remains readable throughout.
                self._commit_seq -= 1
                raise
            try:
                self._apply(records, preimage_upto=self._commit_seq - 1)
            except OSError as exc:
                if exc.errno != errno.ENOSPC:
                    raise
                # The group IS durable in its segment — a standby may
                # already have shipped it — so the sequence stays
                # consumed; rewriting it with different content would
                # fork history.  A retried sync() re-stages the same
                # pages under the next sequence and the idempotent apply
                # converges the data file.
                raise DiskFullError(
                    "applying commit group %d hit ENOSPC: %s"
                    % (self._commit_seq, exc)) from exc
            if self.durability == "journal":
                _drop_segments(self._archive)
        self.durability_stats.commits += 1
        self._pending.clear()
        self._meta_dirty = False
        return len(records)

    def _apply(self, records, preimage_upto):
        """Keep pre-images for pinned snapshots, then write the group."""
        with self._commit_lock:
            if self.versions.pinned:
                for page_id in records:
                    if page_id == 0:
                        continue  # snapshots never read the superblock
                    self.versions.record(page_id, preimage_upto,
                                         self._peek(page_id))
            self.durability_stats.applied_pages += _apply_records(
                self._fd, records, self.page_size, self._filter_physical)

    def _filter_physical(self, kind, page_id, data):
        if self.fault_hook is None:
            return data, False
        return self.fault_hook(kind, page_id, data)

    # -- superblock ----------------------------------------------------------

    def _superblock_image(self):
        capacity = (self.page_size - _SUPERBLOCK.size) // _FREE_ID_SIZE
        persisted = self._freed[:capacity]
        leaked = len(self._freed) - len(persisted)
        if leaked:
            self.recovery_stats.leaked_pages += leaked
            self._freed = list(persisted)
        image = bytearray(self.page_size)
        _SUPERBLOCK.pack_into(
            image, 0, _SUPERBLOCK_MAGIC, _SUPERBLOCK_VERSION, 0,
            self.page_size, self._commit_seq, self._next_page_id,
            len(persisted), leaked,
        )
        struct.pack_into("<%dI" % len(persisted), image, _SUPERBLOCK.size,
                         *persisted)
        crc = zlib.crc32(bytes(image)) & 0xFFFFFFFF
        struct.pack_into("<I", image, _SB_CRC_OFFSET, crc)
        return bytes(image)

    def _write_superblock_direct(self):
        # A one-record group: same write + fsync as any apply.
        _apply_records(self._fd, {0: self._superblock_image()},
                       self.page_size, self._filter_physical)
        self.durability_stats.superblock_writes += 1
        self._meta_dirty = False

    def _read_superblock(self):
        """Decode the data file's superblock page (RecoveryError if it is
        missing, torn or corrupt)."""
        raw = os.pread(self._fd, self.page_size, 0)
        return decode_superblock(raw.ljust(self.page_size, b"\x00"))

    def _load_superblock(self, count_stats=True):
        try:
            info = self._read_superblock()
        except RecoveryError as exc:
            raise RecoveryError("%s: %s" % (self._path, exc)) from exc
        if info["page_size"] != self.page_size:
            raise StorageError(
                "%s was created with page size %d, opened with %d"
                % (self._path, info["page_size"], self.page_size)
            )
        self._commit_seq = info["sequence"]
        self._next_page_id = info["next_page_id"]
        self._freed = info["free_list"]
        self._live = set(range(1, self._next_page_id)) - set(self._freed)
        if count_stats:
            self.recovery_stats.free_pages_recovered = len(self._freed)
            self.recovery_stats.leaked_pages += info["leaked"]

    # -- recovery-on-open ----------------------------------------------------

    def _recover(self):
        """Replay or discard what a crashed predecessor left pending.

        Only the newest segment of a directory can be unapplied (every
        older one was fully applied before its successor was written).
        A journal-mode directory, and the single-file ``<path>.journal``
        of earlier versions (same group encoding), are drained whichever
        durable mode opens the file; an archive keeps its applied
        segments — they are history, not pending intents.
        """
        if self.journaled:
            legacy = self._path + ".journal"
            if os.path.isfile(legacy):
                with open(legacy, "rb") as handle:
                    blob = handle.read()
                if blob:
                    self._recover_group(decode_group(blob, self.page_size))
                os.remove(legacy)
            wal = self._path + _WAL_SUFFIX
            if os.path.isdir(wal):
                store = Archive(wal, self.page_size)
                self._recover_newest(store)
                _drop_segments(store)
            if self.archive is not None:
                self._recover_newest(self.archive)
        self._load_superblock()

    def _recover_newest(self, store):
        latest = store.latest_sequence()
        if latest is None:
            return
        _verdict, group = classify_segment(
            latest, store.fetch(latest), self.page_size, latest, latest)
        if not self._recover_group(group):
            store.remove(latest)

    def _recover_group(self, group):
        """Replay one pending group, or count a torn one (``group`` None,
        returns False): it was never acknowledged."""
        stats = self.recovery_stats
        if group is None:
            stats.discarded_groups += 1
            stats.torn_groups += 1
            return False
        sequence, records = group
        try:
            applied = self._read_superblock()["sequence"]
        except RecoveryError:
            applied = None  # torn mid-apply: the group rewrites page 0
        if applied is None or sequence >= applied:
            stats.replayed_pages += _apply_records(self._fd, records,
                                                   self.page_size)
            stats.replayed_groups += 1
        return True

    # -- standby apply -------------------------------------------------------

    def apply_group(self, sequence, records):
        """Apply one shipped commit group to this disk (standby path).

        The group must include the superblock (page id 0) — every
        ``sync()`` group does — so applying it moves this file to the
        primary's exact post-commit state, allocation metadata included.
        Applying is idempotent: a retry after a
        :class:`~repro.storage.errors.TransientIOError` re-writes the same
        images.  Refuses to run over staged local writes (a standby must
        be read-only) or to move backwards past the current sequence.
        """
        if self._fd is None:
            raise StorageError("apply_group on a closed disk")
        if self._pending or self._meta_dirty:
            raise StorageError(
                "apply_group over staged local writes (standby disks "
                "must be read-only)"
            )
        if 0 not in records:
            raise StorageError(
                "commit group %d has no superblock record" % sequence)
        if sequence < self._commit_seq:
            raise StorageError(
                "apply_group sequence %d behind current commit %d"
                % (sequence, self._commit_seq)
            )
        with self._commit_lock:
            # Pre-apply, this disk's state is its own commit sequence —
            # pins taken here (a standby can serve snapshot reads too)
            # keep images valid up to that sequence.
            self._apply(records, preimage_upto=self._commit_seq)
            self._load_superblock(count_stats=False)
        return len(records)

    # -- physical page I/O ---------------------------------------------------

    def _offset(self, page_id):
        return page_id * self.page_size

    def _on_allocate(self, page_id):
        self._live.add(page_id)
        self._meta_dirty = True
        if self.journaled:
            self._pending[page_id] = bytes(self.page_size)
        else:
            os.pwrite(self._fd, bytes(self.page_size), self._offset(page_id))
            self.durability_stats.direct_pages += 1

    def _on_free(self, page_id):
        self._live.discard(page_id)
        self._pending.pop(page_id, None)
        self._meta_dirty = True

    def _read(self, page_id):
        staged = self._pending.get(page_id)
        if staged is not None:
            return staged
        data = os.pread(self._fd, self.page_size, self._offset(page_id))
        if len(data) < self.page_size:
            data += b"\x00" * (self.page_size - len(data))
        return data

    def _write(self, page_id, data):
        if self.journaled:
            # Staging is an in-memory operation: no physical write happens
            # until sync(), so the fault hook is not consulted here (the
            # wrapper intercepts logical writes itself).
            self._pending[page_id] = data
        else:
            data, crash = self._filter_physical("direct", page_id, data)
            os.pwrite(self._fd, data, self._offset(page_id))
            self.durability_stats.direct_pages += 1
            if crash:
                from repro.storage.faults import CrashPoint

                raise CrashPoint("killed during an in-place page write")

    def _peek(self, page_id):
        """The persisted image, ignoring staged writes (test hook)."""
        data = os.pread(self._fd, self.page_size, self._offset(page_id))
        if len(data) < self.page_size:
            data += b"\x00" * (self.page_size - len(data))
        return data

    def _committed_image(self, page_id):
        # Same as _peek: the data file holds exactly the committed images
        # in journal/archive mode.  No liveness check — a page freed after
        # the pin stays readable until a later commit overwrites it, and
        # that overwrite records the pre-image first.
        return self._peek(page_id)

    def _poke(self, page_id, data):
        """Corrupt the persisted image directly, bypassing the journal."""
        self._pending.pop(page_id, None)
        os.pwrite(self._fd, data, self._offset(page_id))

    def _check_exists(self, page_id):
        if page_id not in self._live:
            raise PageNotFoundError(page_id)
