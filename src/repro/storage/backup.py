"""Hot backup and point-in-time recovery for file-backed databases.

A *hot backup* (:func:`hot_backup`) is a consistent page-level snapshot of
a live database taken **without blocking readers**: it copies only the
*committed* bytes of the data file (staged writes live in memory until
``sync()``, and ``sync()`` itself is atomic), so the copy always lands
exactly on a commit boundary.  The snapshot is a directory:

```
<dest>/data.db          byte copy of the data file
<dest>/MANIFEST.json    sequence, page size, length, CRC-32, timestamp
```

With ``durability="archive"`` the disk keeps every applied commit group
as a sequence-numbered segment file (:class:`~repro.storage.journal.\
Archive`), so a backup plus the archive is a *point-in-time* story:
:func:`restore` copies the snapshot back and replays archived segments up
to ``upto_sequence`` — rewinding a bad bulk update is "restore to the
sequence before it".  Segments are validated by CRC before being applied;
a torn trailing segment (primary crashed mid-archive, never acknowledged)
is skipped gracefully, while a gap or a corrupt *interior* segment raises
:class:`~repro.storage.errors.BackupError` — replaying past it would
silently lose commits.

The module doubles as a CLI::

    python -m repro.storage.backup backup  <db-file> <backup-dir>
    python -m repro.storage.backup restore <backup-dir> <db-file> \
        [--archive DIR] [--upto SEQ]
    python -m repro.storage.backup info <backup-dir>
    python -m repro.storage.backup segments <archive-dir>
"""

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass

from repro.storage.disk import decode_superblock
from repro.storage.errors import BackupError
from repro.storage.journal import (APPLY, CORRUPT, MISSING, PRUNED, TORN_HEAD,
                                   Archive, _apply_records, classify_segment,
                                   fsync_directory, segment_name)

MANIFEST_NAME = "MANIFEST.json"
DATA_NAME = "data.db"

_COPY_CHUNK = 1 << 20


@dataclass
class BackupManifest:
    """What one hot backup captured (persisted as ``MANIFEST.json``)."""

    sequence: int        # commit sequence of the snapshotted superblock
    page_size: int
    next_page_id: int    # allocation frontier at snapshot time
    data_bytes: int      # length of data.db
    data_crc32: int      # CRC-32 of data.db, for restore verification
    created_at: float    # unix timestamp (informational)

    def save(self, directory):
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        return path

    @classmethod
    def load(cls, directory):
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise BackupError("%s is not a backup directory (no %s)"
                              % (directory, MANIFEST_NAME))
        except (OSError, ValueError) as exc:
            raise BackupError("unreadable backup manifest %s: %s"
                              % (path, exc))
        try:
            return cls(**{key: raw[key] for key in
                          ("sequence", "page_size", "next_page_id",
                           "data_bytes", "data_crc32", "created_at")})
        except KeyError as exc:
            raise BackupError("backup manifest %s is missing %s"
                              % (path, exc))


@dataclass
class RestoreResult:
    """What :func:`restore` did."""

    path: str
    base_sequence: int       # the backup's commit sequence
    sequence: int            # commit sequence after segment replay
    segments_applied: int
    pages_applied: int
    torn_segments_skipped: int


def _source_path(source):
    """The data-file path behind a database, disk or plain path."""
    context = getattr(source, "_context", None)
    if context is not None:           # XmlDatabase
        source = context.disk
    inner = getattr(source, "inner", None)
    if inner is not None:             # FaultInjectingDisk wrapper
        source = inner
    path = getattr(source, "path", None)
    if path is None and isinstance(source, str):
        path = source
    if path is None:
        raise BackupError(
            "hot_backup needs a file-backed database, a FileDisk or a "
            "path; got %r" % (source,)
        )
    return path


def hot_backup(source, dest_dir):
    """Snapshot the committed state of ``source`` into ``dest_dir``.

    ``source`` is an ``XmlDatabase``, a ``FileDisk`` (possibly wrapped in
    a ``FaultInjectingDisk``) or a path.  The copy reads the file through
    its own descriptor, so a live database keeps serving reads and its
    staged (uncommitted) writes are naturally excluded.  Returns the
    :class:`BackupManifest` (also written into ``dest_dir``).
    """
    src = _source_path(source)
    os.makedirs(dest_dir, exist_ok=True)
    dest_data = os.path.join(dest_dir, DATA_NAME)
    crc = 0
    copied = 0
    try:
        with open(src, "rb") as reader:
            head = reader.read(_COPY_CHUNK)
            if not head:
                raise BackupError("%s is empty — nothing to back up" % src)
            info = decode_superblock(head)
            with open(dest_data, "wb") as writer:
                chunk = head
                while chunk:
                    writer.write(chunk)
                    crc = zlib.crc32(chunk, crc)
                    copied += len(chunk)
                    chunk = reader.read(_COPY_CHUNK)
                writer.flush()
                os.fsync(writer.fileno())
    except FileNotFoundError:
        raise BackupError("no such data file: %s" % src)
    manifest = BackupManifest(
        sequence=info["sequence"],
        page_size=info["page_size"],
        next_page_id=info["next_page_id"],
        data_bytes=copied,
        data_crc32=crc & 0xFFFFFFFF,
        created_at=time.time(),
    )
    manifest.save(dest_dir)
    fsync_directory(dest_dir)
    return manifest


def restore(backup_dir, dest_path, archive_dir=None, upto_sequence=None):
    """Rebuild a database file from a backup, optionally replaying history.

    Copies the snapshot to ``dest_path`` (verifying its CRC), then — when
    ``archive_dir`` is given — replays archived commit groups with
    sequences above the snapshot's, stopping at ``upto_sequence`` (None
    means "all the way to the head": point-in-time recovery picks the
    sequence just before the mistake).  Returns a :class:`RestoreResult`.

    Divergence rules (:func:`~repro.storage.journal.classify_segment`): a
    torn segment at the *head* of the stream is skipped (it was never
    acknowledged); a pruned or missing segment, or a corrupt one below
    the head, raises
    :class:`~repro.storage.errors.BackupError` — those commits cannot be
    reconstructed and must not be silently dropped.
    """
    manifest = BackupManifest.load(backup_dir)
    src_data = os.path.join(backup_dir, DATA_NAME)
    crc = 0
    try:
        with open(src_data, "rb") as reader, open(dest_path, "wb") as writer:
            chunk = reader.read(_COPY_CHUNK)
            while chunk:
                writer.write(chunk)
                crc = zlib.crc32(chunk, crc)
                chunk = reader.read(_COPY_CHUNK)
            writer.flush()
            os.fsync(writer.fileno())
    except FileNotFoundError:
        raise BackupError("backup %s has no %s" % (backup_dir, DATA_NAME))
    if crc & 0xFFFFFFFF != manifest.data_crc32:
        raise BackupError(
            "backup data of %s fails its manifest CRC (bit rot in the "
            "backup itself)" % backup_dir
        )
    result = RestoreResult(
        path=dest_path,
        base_sequence=manifest.sequence,
        sequence=manifest.sequence,
        segments_applied=0,
        pages_applied=0,
        torn_segments_skipped=0,
    )
    if archive_dir is not None:
        _replay_segments(result, manifest, archive_dir, dest_path,
                         upto_sequence)
    fsync_directory(os.path.dirname(os.path.abspath(dest_path)))
    return result


def _replay_segments(result, manifest, archive_dir, dest_path,
                     upto_sequence):
    archive = Archive(archive_dir, manifest.page_size)
    head = archive.latest_sequence()
    if head is None:
        return
    oldest = archive.oldest_sequence()
    stop = head if upto_sequence is None else min(head, upto_sequence)
    fd = os.open(dest_path, os.O_RDWR)
    try:
        for seq in range(manifest.sequence + 1, stop + 1):
            verdict, group = classify_segment(
                seq, archive.fetch(seq), manifest.page_size, head, oldest)
            if verdict == TORN_HEAD:
                # Never acknowledged: safe to stop short of it.
                result.torn_segments_skipped += 1
                return
            if verdict == PRUNED:
                raise BackupError(
                    "archive %s starts at sequence %d but the backup ends "
                    "at %d: the intervening segments were pruned or lost"
                    % (archive_dir, oldest, manifest.sequence))
            if verdict == MISSING:
                raise BackupError(
                    "archive %s has a sequence gap: segment %d is missing"
                    % (archive_dir, seq))
            if verdict == CORRUPT:
                raise BackupError(
                    "archive segment %s is corrupt with valid segments "
                    "beyond it — cannot replay past it without losing "
                    "commits" % segment_name(seq))
            result.pages_applied += _apply_records(fd, group[1],
                                                   manifest.page_size)
            result.segments_applied += 1
            result.sequence = seq
    finally:
        os.close(fd)


# -- CLI --------------------------------------------------------------------


def _cmd_backup(args):
    manifest = hot_backup(args.db, args.dest)
    print("backed up %s -> %s (sequence %d, %d bytes)"
          % (args.db, args.dest, manifest.sequence, manifest.data_bytes))
    return 0


def _cmd_restore(args):
    result = restore(args.backup, args.db, archive_dir=args.archive,
                     upto_sequence=args.upto)
    print("restored %s at sequence %d (base %d, %d segments replayed, "
          "%d torn skipped)"
          % (result.path, result.sequence, result.base_sequence,
             result.segments_applied, result.torn_segments_skipped))
    return 0


def _print_replay_window(archive):
    oldest, newest, count, size = archive.replay_window()
    if count == 0:
        print("replay window: empty (no segments retained)")
        return oldest, newest
    print("replay window: sequences %d..%d (%d segment(s), %d bytes)"
          % (oldest, newest, count, size))
    return oldest, newest


def _cmd_info(args):
    manifest = BackupManifest.load(args.backup)
    for key, value in sorted(asdict(manifest).items()):
        print("%-14s %s" % (key, value))
    if args.archive is not None:
        archive = Archive(args.archive, manifest.page_size)
        oldest, _newest = _print_replay_window(archive)
        if oldest is not None and oldest > manifest.sequence + 1:
            # The segments between the snapshot and the retention floor
            # are gone: this backup can no longer be rolled forward.
            print("WARNING: archive starts at %d but the backup stops "
                  "at %d — PITR from this backup is impossible"
                  % (oldest, manifest.sequence))
    return 0


def _cmd_segments(args):
    archive = Archive(args.archive, args.page_size)
    sequences = archive.sequences()
    for seq in sequences:
        verdict, _group = classify_segment(
            seq, archive.fetch(seq), args.page_size, sequences[-1],
            sequences[0])
        status = "ok" if verdict == APPLY else "CORRUPT"
        print("%s  %s" % (segment_name(seq), status))
    print("%d segment(s)" % len(sequences))
    _print_replay_window(archive)
    return 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.backup",
        description="Hot backup, restore and point-in-time recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backup", help="snapshot a database file")
    p.add_argument("db", help="path of the database file")
    p.add_argument("dest", help="backup directory to create")
    p.set_defaults(fn=_cmd_backup)

    p = sub.add_parser("restore", help="rebuild a database from a backup")
    p.add_argument("backup", help="backup directory")
    p.add_argument("db", help="path of the database file to (re)create")
    p.add_argument("--archive", default=None,
                   help="archive directory to replay segments from")
    p.add_argument("--upto", type=int, default=None,
                   help="stop replay at this commit sequence (PITR)")
    p.set_defaults(fn=_cmd_restore)

    p = sub.add_parser("info", help="print a backup's manifest")
    p.add_argument("backup", help="backup directory")
    p.add_argument("--archive", default=None,
                   help="also report this archive's replay window and "
                        "whether PITR from the backup is still possible")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("segments", help="list an archive's segments")
    p.add_argument("archive", help="archive directory")
    p.add_argument("--page-size", type=int, default=4096)
    p.set_defaults(fn=_cmd_segments)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BackupError as exc:
        print("error: %s" % exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
