"""Hot backup, archive segments and point-in-time recovery."""

import os

import pytest

from repro.core.database import XmlDatabase
from repro.storage.backup import (
    BackupManifest,
    hot_backup,
    main as backup_cli,
    restore,
)
from repro.storage.errors import BackupError
from repro.storage.journal import Archive, segment_name

PAGE_SIZE = 512
BUFFER_PAGES = 32

XML_A = "<dept><team><name>db</name><member><name>ada</name></member></team></dept>"
XML_B = "<dept><team><name>ir</name><member><name>bob</name></member></team></dept>"
XML_C = "<dept><note>restructure</note></dept>"


def make_primary(tmp_path, docs=("a", "b", "c")):
    """An archive-mode primary with one commit per document."""
    path = str(tmp_path / "primary.db")
    db = XmlDatabase.create(path, page_size=PAGE_SIZE,
                            buffer_pages=BUFFER_PAGES, durability="archive")
    sources = {"a": XML_A, "b": XML_B, "c": XML_C}
    sequences = {}
    for name in docs:
        db.add_document(sources[name], name=name)
        db.flush()
        sequences[name] = db._context.disk.commit_sequence
    return path, db, sequences


def doc_names(path, **options):
    db = XmlDatabase.open(path, page_size=PAGE_SIZE,
                          buffer_pages=BUFFER_PAGES, **options)
    try:
        return [name for _id, name in db.documents()]
    finally:
        db.close()


class TestHotBackup:
    def test_backup_captures_committed_state_only(self, tmp_path):
        path, db, _sequences = make_primary(tmp_path, docs=("a",))
        # Staged but uncommitted: must NOT appear in the backup.
        db.add_document(XML_B, name="staged")
        manifest = db.hot_backup(str(tmp_path / "bk"))
        db.close()

        restored = restore(str(tmp_path / "bk"), str(tmp_path / "r.db"))
        assert restored.base_sequence == manifest.sequence
        assert doc_names(str(tmp_path / "r.db")) == ["a"]

    def test_backup_manifest_round_trips(self, tmp_path):
        path, db, _sequences = make_primary(tmp_path, docs=("a",))
        manifest = db.hot_backup(str(tmp_path / "bk"))
        db.close()
        loaded = BackupManifest.load(str(tmp_path / "bk"))
        assert loaded == manifest
        assert loaded.page_size == PAGE_SIZE
        assert loaded.data_bytes > 0

    def test_backup_of_missing_file_raises(self, tmp_path):
        with pytest.raises(BackupError):
            hot_backup(str(tmp_path / "nope.db"), str(tmp_path / "bk"))

    def test_restore_detects_backup_bit_rot(self, tmp_path):
        path, db, _sequences = make_primary(tmp_path, docs=("a",))
        db.hot_backup(str(tmp_path / "bk"))
        db.close()
        data = str(tmp_path / "bk" / "data.db")
        blob = bytearray(open(data, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(data, "wb").write(bytes(blob))
        with pytest.raises(BackupError, match="CRC"):
            restore(str(tmp_path / "bk"), str(tmp_path / "r.db"))


class TestPointInTimeRecovery:
    def test_restore_to_each_commit_boundary(self, tmp_path):
        early = str(tmp_path / "early")
        archive = str(tmp_path / "fresh.archive")
        base = XmlDatabase.create(str(tmp_path / "fresh.db"),
                                  page_size=PAGE_SIZE,
                                  buffer_pages=BUFFER_PAGES,
                                  durability="archive",
                                  archive_dir=archive)
        base.add_document(XML_A, name="a")
        base.flush()
        seq_a = base._context.disk.commit_sequence
        base.hot_backup(early)
        base.add_document(XML_B, name="b")
        base.flush()
        seq_b = base._context.disk.commit_sequence
        base.add_document(XML_C, name="c")
        base.flush()
        base.close()

        for upto, expected in ((seq_a, ["a"]),
                               (seq_b, ["a", "b"]),
                               (None, ["a", "b", "c"])):
            dest = str(tmp_path / ("pitr-%s.db" % (upto or "head")))
            result = restore(early, dest, archive_dir=archive,
                             upto_sequence=upto)
            assert doc_names(dest) == expected, (upto, expected)
            if upto is not None:
                assert result.sequence == upto

    def test_sequence_gap_refuses_replay(self, tmp_path):
        path, db, sequences = make_primary(tmp_path)
        backup = str(tmp_path / "bk")
        db.close()
        # Take a base backup by restoring the raw first state: simplest is
        # a backup of the live file before pruning; here prune an interior
        # segment and check the gap is refused from a fresh base.
        early_db = XmlDatabase.create(str(tmp_path / "e.db"),
                                      page_size=PAGE_SIZE,
                                      buffer_pages=BUFFER_PAGES,
                                      durability="archive")
        early_db.add_document(XML_A, name="a")
        early_db.flush()
        early_db.hot_backup(backup)
        early_db.add_document(XML_B, name="b")
        early_db.flush()
        early_db.add_document(XML_C, name="c")
        early_db.flush()
        early_db.close()
        archive_dir = str(tmp_path / "e.db.archive")
        archive = Archive(archive_dir, PAGE_SIZE)
        middle = archive.sequences()[-2]
        archive.remove(middle)
        with pytest.raises(BackupError, match="gap"):
            restore(backup, str(tmp_path / "g.db"),
                    archive_dir=archive_dir)

    def test_torn_head_segment_is_skipped(self, tmp_path):
        path, db, sequences = make_primary(tmp_path, docs=("a", "b"))
        backup = str(tmp_path / "bk")
        db.close()
        early = XmlDatabase.create(str(tmp_path / "t.db"),
                                   page_size=PAGE_SIZE,
                                   buffer_pages=BUFFER_PAGES,
                                   durability="archive")
        early.add_document(XML_A, name="a")
        early.flush()
        early.hot_backup(backup)
        early.add_document(XML_B, name="b")
        early.flush()
        early.close()
        archive_dir = str(tmp_path / "t.db.archive")
        archive = Archive(archive_dir, PAGE_SIZE)
        head = archive.sequences()[-1]
        seg = archive.segment_path(head)
        blob = open(seg, "rb").read()
        open(seg, "wb").write(blob[: len(blob) // 2])  # tear it
        result = restore(backup, str(tmp_path / "th.db"),
                         archive_dir=archive_dir)
        assert result.torn_segments_skipped == 1
        assert doc_names(str(tmp_path / "th.db")) == ["a"]

    def test_replayed_segments_are_fsynced_before_a_torn_head(
            self, tmp_path, monkeypatch):
        backup = str(tmp_path / "bk")
        db = XmlDatabase.create(str(tmp_path / "f.db"),
                                page_size=PAGE_SIZE,
                                buffer_pages=BUFFER_PAGES,
                                durability="archive")
        db.add_document(XML_A, name="a")
        db.flush()
        db.hot_backup(backup)
        db.add_document(XML_B, name="b")
        db.flush()
        db.add_document(XML_C, name="c")
        db.flush()
        db.close()
        archive_dir = str(tmp_path / "f.db.archive")
        archive = Archive(archive_dir, PAGE_SIZE)
        seg = archive.segment_path(archive.sequences()[-1])
        blob = open(seg, "rb").read()
        open(seg, "wb").write(blob[: len(blob) // 2])  # tear the head

        dest = str(tmp_path / "fr.db")
        events = []

        def on_dest(fd):
            return (os.path.exists(dest)
                    and os.fstat(fd).st_ino == os.stat(dest).st_ino)

        real_pwrite, real_fsync = os.pwrite, os.fsync

        def pwrite(fd, data, offset):
            if on_dest(fd):
                events.append("pwrite")
            return real_pwrite(fd, data, offset)

        def fsync(fd):
            if on_dest(fd):
                events.append("fsync")
            return real_fsync(fd)

        monkeypatch.setattr(os, "pwrite", pwrite)
        monkeypatch.setattr(os, "fsync", fsync)
        result = restore(backup, dest, archive_dir=archive_dir)
        monkeypatch.undo()
        assert result.torn_segments_skipped == 1
        assert result.segments_applied >= 1
        # Reporting success means the replayed pages are durable: no page
        # write to the restored file may be left without an fsync after it.
        assert "pwrite" in events
        assert events[-1] == "fsync"
        assert doc_names(dest) == ["a", "b"]

    def test_corrupt_interior_segment_refuses_replay(self, tmp_path):
        backup = str(tmp_path / "bk")
        db = XmlDatabase.create(str(tmp_path / "ci.db"),
                                page_size=PAGE_SIZE,
                                buffer_pages=BUFFER_PAGES,
                                durability="archive")
        db.add_document(XML_A, name="a")
        db.flush()
        db.hot_backup(backup)
        db.add_document(XML_B, name="b")
        db.flush()
        db.add_document(XML_C, name="c")
        db.flush()
        db.close()
        archive_dir = str(tmp_path / "ci.db.archive")
        archive = Archive(archive_dir, PAGE_SIZE)
        middle = archive.sequences()[-2]
        seg = archive.segment_path(middle)
        blob = bytearray(open(seg, "rb").read())
        blob[20] ^= 0xFF
        open(seg, "wb").write(bytes(blob))
        with pytest.raises(BackupError, match="corrupt"):
            restore(backup, str(tmp_path / "cr.db"),
                    archive_dir=archive_dir)


class TestArchiveMode:
    def test_archive_accumulates_one_segment_per_commit(self, tmp_path):
        path, db, sequences = make_primary(tmp_path)
        archive = db.archive
        assert archive is not None
        assert archive.sequences() == sorted(sequences.values())
        db.close()

    def test_reopen_keeps_history_and_state(self, tmp_path):
        path, db, sequences = make_primary(tmp_path)
        db.close()
        assert doc_names(path, durability="archive") == ["a", "b", "c"]
        archive = Archive(path + ".archive", PAGE_SIZE)
        assert archive.sequences()  # history survives a clean reopen

    def test_prune_respects_retention_boundary(self, tmp_path):
        path, db, sequences = make_primary(tmp_path)
        archive = db.archive
        removed = archive.prune_upto(sequences["b"])
        assert removed == 2
        assert archive.sequences() == [sequences["c"]]
        db.close()


class TestBackupCLI:
    def test_backup_info_segments_restore_round_trip(self, tmp_path, capsys):
        path, db, sequences = make_primary(tmp_path, docs=("a", "b"))
        db.close()
        backup = str(tmp_path / "cli-bk")
        assert backup_cli(["backup", path, backup]) == 0
        assert backup_cli(["info", backup]) == 0
        out = capsys.readouterr().out
        assert "sequence" in out

        archive_dir = path + ".archive"
        assert backup_cli(["segments", archive_dir,
                           "--page-size", str(PAGE_SIZE)]) == 0
        out = capsys.readouterr().out
        assert segment_name(sequences["a"]) in out
        assert "CORRUPT" not in out

        dest = str(tmp_path / "cli-restored.db")
        assert backup_cli(["restore", backup, dest,
                           "--archive", archive_dir]) == 0
        assert doc_names(dest) == ["a", "b"]

    def test_cli_reports_errors_with_exit_code(self, tmp_path, capsys):
        assert backup_cli(["info", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().out
