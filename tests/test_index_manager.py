"""Tests for the index lifecycle manager (repro.storage.indexmanager)."""

import pytest

from repro.core.api import StorageContext, XRTreeIndex
from repro.core.database import XmlDatabase
from repro.storage.catalog import Catalog
from repro.storage.indexmanager import (
    IndexManager,
    IndexManagerError,
    IndexManagerStats,
)
from tests.conftest import entry


@pytest.fixture
def catalog(pool):
    return Catalog.create(pool)


@pytest.fixture
def manager(catalog, pool):
    return IndexManager(catalog, pool)


def seeded_tree(manager, name, starts=(1, 5)):
    tree = manager.get_or_create_xrtree(name)
    manager.mark_dirty(name)
    for start in starts:
        tree.insert(entry(start, start + 1))
    return tree


class TestHandleCache:
    def test_missing_name_returns_none(self, manager):
        assert manager.get_xrtree("nope") is None
        assert manager.stats.misses == 1
        assert manager.stats.loads == 0

    def test_load_then_hit(self, manager, catalog, pool):
        from repro.indexes.xrtree import XRTree

        tree = XRTree(pool)
        tree.insert(entry(1, 10))
        catalog.save_xrtree("t", tree)

        first = manager.get_xrtree("t")
        second = manager.get_xrtree("t")
        assert first is second           # same live handle, no reload
        assert manager.stats.loads == 1
        assert manager.stats.hits == 1
        assert manager.stats.misses == 1
        assert manager.stats.hit_rate == 0.5

    def test_get_or_create_registers_dirty(self, manager):
        seeded_tree(manager, "fresh")
        assert manager.stats.creations == 1
        assert manager.is_dirty("fresh")
        assert ("fresh", True) in manager.resident()

    def test_flush_persists_created_handle(self, manager, catalog, pool):
        seeded_tree(manager, "fresh", starts=(3, 9))
        assert "fresh" not in catalog.names()
        assert manager.flush() == 1
        assert catalog.names()["fresh"] == "xr-tree"
        # A second manager loads what the first wrote back.
        other = IndexManager(catalog, pool)
        reloaded = other.get_xrtree("fresh")
        assert [e.start for e in reloaded.items()] == [3, 9]


class TestLifecycle:
    def test_mark_dirty_requires_resident_handle(self, manager):
        with pytest.raises(IndexManagerError):
            manager.mark_dirty("ghost")

    def test_kind_mismatch_catalogued(self, manager, catalog, pool):
        from repro.indexes.bptree import BPlusTree

        catalog.save_bptree("b", BPlusTree(pool))
        with pytest.raises(IndexManagerError):
            manager.get_xrtree("b")

    def test_discard_forces_reload(self, manager):
        seeded_tree(manager, "t")
        manager.flush()
        manager.discard("t")
        assert manager.stats.invalidations == 1
        assert "t" not in manager
        manager.get_xrtree("t")
        assert manager.stats.loads == 1

    def test_drop_tombstones_catalog_entry(self, manager, catalog):
        seeded_tree(manager, "t")
        manager.flush()
        manager.drop("t")
        assert "t" not in catalog.names()
        assert manager.get_xrtree("t") is None

    def test_drop_of_never_persisted_handle(self, manager, catalog):
        seeded_tree(manager, "t")        # dirty, no catalog entry yet
        manager.drop("t")
        assert "t" not in catalog.names()
        assert "t" not in manager

    def test_close_flushes_and_is_idempotent(self, manager, catalog):
        seeded_tree(manager, "t")
        manager.close()
        manager.close()
        assert catalog.names()["t"] == "xr-tree"
        with pytest.raises(IndexManagerError):
            manager.get_xrtree("t")

    def test_context_manager(self, catalog, pool):
        with IndexManager(catalog, pool) as manager:
            seeded_tree(manager, "t")
        assert manager.closed
        assert "t" in catalog.names()


class TestFlushFailures:
    def test_flush_attempts_all_and_names_failures(self, manager, catalog):
        from repro.storage.errors import StorageError

        seeded_tree(manager, "ok-1")
        seeded_tree(manager, "bad")
        seeded_tree(manager, "ok-2")
        real_save = catalog.save_xrtree

        def failing_save(name, tree):
            if name == "bad":
                raise StorageError("injected save failure")
            real_save(name, tree)

        catalog.save_xrtree = failing_save
        with pytest.raises(IndexManagerError) as excinfo:
            manager.flush()
        # Every other handle was still written back...
        assert "ok-1" in catalog.names()
        assert "ok-2" in catalog.names()
        assert not manager.is_dirty("ok-1")
        assert not manager.is_dirty("ok-2")
        # ...the failed one stays dirty and is named in the error.
        assert manager.is_dirty("bad")
        assert excinfo.value.failed == ["bad"]
        assert "'bad'" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, StorageError)
        # Once the fault clears, a retry drains the remaining handle.
        catalog.save_xrtree = real_save
        assert manager.flush() == 1
        assert "bad" in catalog.names()

    def test_flush_propagates_non_storage_errors_immediately(
            self, manager, catalog):
        from repro.storage.faults import CrashPoint

        seeded_tree(manager, "a")
        seeded_tree(manager, "b")

        def crashing_save(name, tree):
            raise CrashPoint("simulated kill")

        catalog.save_xrtree = crashing_save
        with pytest.raises(CrashPoint):
            manager.flush()
        # The crash was not swallowed into an IndexManagerError.
        assert manager.is_dirty("a") or manager.is_dirty("b")


class TestContextManagers:
    def test_storage_context_with_statement(self, tmp_path):
        path = str(tmp_path / "ctx.pages")
        with StorageContext(page_size=512, path=path) as context:
            index = XRTreeIndex.build([entry(1, 10), entry(2, 5)], context)
            assert len(index) == 2
        assert context.disk.closed

    def test_storage_context_close_flushes_file_disk(self, tmp_path):
        path = str(tmp_path / "durable.pages")
        with StorageContext(page_size=512, path=path) as context:
            catalog = Catalog.create(context.pool)
            catalog.save_blob("b", b"payload")
            # no explicit flush: close() must write dirty pages back
        with StorageContext(page_size=512, path=path) as context:
            assert Catalog.open(context.pool).load_blob("b") == b"payload"

    def test_storage_context_index_stats_default(self):
        context = StorageContext()
        assert isinstance(context.index_stats, IndexManagerStats)
        assert context.index_stats.requests == 0

    def test_storage_context_closes_attached_manager(self, tmp_path):
        path = str(tmp_path / "mgr.pages")
        with StorageContext(page_size=512, path=path) as context:
            catalog = Catalog.create(context.pool)
            manager = context.attach_index_manager(
                IndexManager(catalog, context.pool)
            )
            tree = manager.get_or_create_xrtree("t")
            manager.mark_dirty("t")
            tree.insert(entry(1, 10))
            assert context.index_stats is manager.stats
        assert manager.closed

    def test_xrtree_index_owned_context_closes(self, tmp_path):
        path = str(tmp_path / "idx.pages")
        with XRTreeIndex(context=None) as index:
            index.insert(entry(1, 10))
        assert index._owns_context
        # File-backed owned context: closing the index closes the disk.
        context = StorageContext(page_size=512, path=path)
        with XRTreeIndex(context=context) as index:
            index.insert(entry(1, 10))
        assert not context.disk.closed    # supplied context left open
        context.close()


class TestDatabaseThroughManager:
    DOC_A = ("<dept><emp><name>w</name><emp><name>x</name></emp></emp>"
             "</dept>")
    DOC_B = ("<dept><emp><name>y</name></emp><office><name>s</name>"
             "</office></dept>")

    def test_repeated_queries_hit_handle_cache(self):
        db = XmlDatabase.create()
        db.add_document(self.DOC_A)
        db.query("//emp//name")
        loads_after_first = db.index_stats.loads
        for _ in range(20):
            db.query("//emp//name")
        assert db.index_stats.loads == loads_after_first
        assert db.index_stats.hit_rate > 0.5

    def test_mutation_after_cached_query_sees_fresh_results(self):
        db = XmlDatabase.create()
        db.add_document(self.DOC_A)
        before = len(db.query("//emp//name"))
        db.add_document(self.DOC_B)
        after = db.query("//emp//name")
        assert len(after) == before + 1
        assert {m.doc_id for m in after.matches} == {1, 2}
        db.remove_document(1)
        final = db.query("//emp//name")
        assert all(m.doc_id == 2 for m in final.matches)

    def test_wildcard_invalidated_on_mutation(self):
        db = XmlDatabase.create()
        db.add_document(self.DOC_A)
        count = len(db.query("//dept//*"))
        db.add_document(self.DOC_B)
        assert len(db.query("//dept//*")) > count

    # 150 tags: more trees than the handle budget of 64 that eviction used
    # to enforce — every handle now simply stays live.
    MANY_TAGS = "<r>%s</r>" % "".join(
        "<t%d><leaf/></t%d>" % (n, n) for n in range(150))

    def test_more_tags_than_the_old_budget_correct(self):
        db = XmlDatabase.create()
        db.add_document(self.MANY_TAGS, name="wide")
        db.add_document(self.DOC_A, name="alpha")
        assert len(db.tags()) == 155
        assert len(db.query("//t149/leaf")) == 1
        assert len(db.query("//r//leaf")) == 150
        assert db.verify() == len(db.tags())
        assert len(db._indexes) == len(db.tags())
        db.remove_document(1)
        assert db.tags() == ["dept", "emp", "name"]
        assert len(db._indexes) == 3
        assert len(db.query("//emp//name")) == 2

    def test_more_tags_than_the_old_budget_persist(self, tmp_path):
        path = str(tmp_path / "wide.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(self.MANY_TAGS, name="wide")
            db.add_document(self.DOC_A, name="alpha")
            db.flush()
            assert db.index_stats.writebacks == len(db.tags())
        with XmlDatabase.open(path, page_size=1024) as db:
            assert len(db.query("//r//leaf")) == 150
            assert len(db.query("//t0/leaf")) == 1
            assert db.verify() == len(db.tags()) == 155
            assert db.index_stats.loads == 155
            db.remove_document(1)
            assert db.verify() == 3
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.tags() == ["dept", "emp", "name"]
            assert all(name in ("__documents__", "tag:dept", "tag:emp",
                                "tag:name")
                       for name in db._catalog.names())

    def test_full_lifecycle_roundtrip(self, tmp_path):
        """create -> add -> query -> remove -> flush -> close -> open."""
        path = str(tmp_path / "cycle.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(self.DOC_A, name="alpha")
            db.add_document(self.DOC_B, name="beta")
            db.query("//emp//name")
            db.remove_document(1)
            db.flush()
            expected = db.query("//emp//name").starts()
            expected_tags = db.tags()
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.verify() == len(db.tags())
            assert db.tags() == expected_tags
            assert db.query("//emp//name").starts() == expected

    def test_emptied_tag_leaves_no_stale_catalog_entry(self):
        db = XmlDatabase.create()
        db.add_document(self.DOC_A)         # has 'emp' but no 'office'
        db.add_document(self.DOC_B)         # the only doc with 'office'
        db.flush()                          # write-back catalogs the tags
        assert "tag:office" in db._catalog.names()
        db.remove_document(2)
        assert "office" not in db.tags()
        assert "tag:office" not in db._catalog.names()
        assert db.element_count("office") == 0
        assert db.entries_for_tag("office") == []

    def test_emptied_tag_consistent_after_reopen(self, tmp_path):
        path = str(tmp_path / "tomb.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(self.DOC_A)
            db.add_document(self.DOC_B)
            db.remove_document(2)
        with XmlDatabase.open(path, page_size=1024) as db:
            assert "office" not in db.tags()
            assert "tag:office" not in db._catalog.names()
            assert len(db.query("//emp//name")) == 2
            # The tag can come back later without tripping on the tombstone.
            db.add_document(self.DOC_B, name="beta-again")
            assert "office" in db.tags()
            assert len(db.query("//office/name")) == 1

    def test_remove_all_then_readd_same_tags(self):
        db = XmlDatabase.create()
        db.add_document(self.DOC_A)
        db.remove_document(1)
        assert db.tags() == []
        assert all(not name.startswith("tag:")
                   for name in db._catalog.names())
        db.add_document(self.DOC_A)
        assert len(db.query("//emp//name")) == 2
