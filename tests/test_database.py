"""Tests for the persistent XML database (repro.core.database)."""

import pytest

from repro.core.database import XmlDatabase, XmlDatabaseError
from repro.indexes.xrtree import check_xrtree
from repro.xmldata.parser import parse_document

DOC_A = "<dept><emp><name>w</name><emp><name>x</name></emp></emp></dept>"
DOC_B = "<dept><emp><name>y</name></emp><office><name>s</name></office></dept>"


class TestBlobStorage:
    def test_roundtrip_small(self, pool):
        from repro.storage.catalog import Catalog

        catalog = Catalog.create(pool)
        catalog.save_blob("b", b"hello blob")
        assert catalog.load_blob("b") == b"hello blob"

    def test_roundtrip_multi_page(self, pool):
        from repro.storage.catalog import Catalog

        catalog = Catalog.create(pool)
        data = bytes(range(256)) * 20  # ~5 KB over 512-byte pages
        catalog.save_blob("big", data)
        assert catalog.load_blob("big") == data

    def test_replace_frees_old_chain(self, pool, disk):
        from repro.storage.catalog import Catalog

        catalog = Catalog.create(pool)
        catalog.save_blob("b", b"x" * 3000)
        before = disk.allocated_page_count
        catalog.save_blob("b", b"y" * 3000)
        assert disk.allocated_page_count == before
        assert catalog.load_blob("b") == b"y" * 3000

    def test_empty_blob(self, pool):
        from repro.storage.catalog import Catalog

        catalog = Catalog.create(pool)
        catalog.save_blob("empty", b"")
        assert catalog.load_blob("empty") == b""

    def test_kind_checked(self, pool):
        from repro.storage.catalog import Catalog, CatalogError
        from repro.indexes.bptree import BPlusTree

        catalog = Catalog.create(pool)
        catalog.save_bptree("t", BPlusTree(pool))
        with pytest.raises(CatalogError):
            catalog.load_blob("t")


class TestInMemoryDatabase:
    @pytest.fixture
    def db(self):
        database = XmlDatabase.create()
        database.add_document(DOC_A, name="alpha")
        database.add_document(DOC_B, name="beta")
        return database

    def test_documents_registered(self, db):
        assert db.documents() == [(1, "alpha"), (2, "beta")]
        assert set(db.tags()) == {"dept", "emp", "name", "office"}

    def test_element_counts(self, db):
        assert db.element_count("emp") == 3
        assert db.element_count("name") == 4
        assert db.element_count() == 2 + 3 + 4 + 1

    def test_query_spans_documents(self, db):
        result = db.query("//emp//name")
        assert len(result) == 3  # w, x from alpha; y from beta
        names = [db.locate(match) for match in result.matches]
        assert {name for name, _s, _e in names} == {"alpha", "beta"}

    def test_query_with_predicate(self, db):
        assert len(db.query("//emp[emp]")) == 1
        assert len(db.query("//dept[office]/emp")) == 1

    def test_joins_never_cross_documents(self, db):
        result = db.query("//dept//name")
        for match in result.matches:
            assert match.doc_id in (1, 2)
        assert len(result) == 4

    def test_find_ancestors(self, db):
        name_entries = db.entries_for_tag("name")
        probe = name_entries[0]
        ancestors = db.find_ancestors("emp", probe.start)
        assert ancestors
        assert all(a.doc_id == probe.doc_id for a in ancestors)

    def test_dynamic_insert_preserves_invariants(self, db):
        for tag in db.tags():
            tree = db._tree_for(tag)
            check_xrtree(tree)

    def test_generated_document(self):
        from repro.workloads import department_dataset

        database = XmlDatabase.create(page_size=1024)
        data = department_dataset(1500, seed=81)
        database.add_document(data.document, name="generated")
        result = database.query("//employee//name")
        engine_truth = len(
            __import__("repro.query", fromlist=["PathQueryEngine"])
            .PathQueryEngine(data.document).evaluate("//employee//name")
        )
        assert len(result) == engine_truth

    def test_long_tag_rejected(self):
        database = XmlDatabase.create()
        with pytest.raises(XmlDatabaseError):
            database.add_document("<%s/>" % ("x" * 40))

    def test_read_naming_an_uncataloguable_tag_answers_empty(self, db):
        """No stored tag can be too long to catalogue, so a read naming one
        has an empty answer — it used to raise the writer's error."""
        long_tag = "x" * 40
        db.flush()
        with db.session() as session:
            for surface in (db, session):
                assert surface.query("//dept//%s" % long_tag).matches == []
                assert surface.query("//%s//name" % long_tag).matches == []
                assert surface.entries_for_tag(long_tag) == []
        assert db.element_count(long_tag) == 0
        assert db.find_ancestors(long_tag, 3) == []
        with pytest.raises(XmlDatabaseError):
            db.add_document("<%s/>" % long_tag)

    def test_rejected_document_leaves_no_trace(self, db):
        """A tag too long to catalogue is found before the registry or any
        tree is touched — even when it comes last in the document."""
        before = (db.documents(), db.tags(), db.element_count(),
                  len(db.query("//name")))
        with pytest.raises(XmlDatabaseError):
            db.add_document("<dept><name/><%s/></dept>" % ("t" * 40))
        assert (db.documents(), db.tags(), db.element_count(),
                len(db.query("//name"))) == before
        assert db.add_document(DOC_A) == 3  # the id was not spent either

    @pytest.mark.parametrize("next_base, xml", [
        # Regions are never reused, so the int32 numbering does run out.
        (2 ** 31 - 4, "<a><b/><b/></a>"),
        (None, "<a>" * 65537 + "</a>" * 65537),  # level is a uint16
    ])
    def test_document_the_record_cannot_hold_is_rejected(self, db, next_base,
                                                         xml):
        """Such a document used to be accepted, after which every flush
        raised a raw ``struct.error`` from inside page write-back and the
        database could never commit again."""
        db.flush()
        if next_base is not None:
            db._next_base = next_base
        before = (db.documents(), db.tags(), db.element_count(),
                  db._next_base, db._next_id, len(db.query("//name")))
        with pytest.raises(XmlDatabaseError, match="does not fit"):
            db.add_document(xml)
        assert (db.documents(), db.tags(), db.element_count(),
                db._next_base, db._next_id, len(db.query("//name"))) == before
        db.flush()
        assert db.add_document("<name/>") == 3  # one that fits still commits
        db.flush()
        assert db.verify() == len(db.tags())
        assert len(db.query("//name")) == before[-1] + 1

    def test_explain(self, db):
        plan = db.explain("//emp//name")
        assert "plan for //emp//name" in plan
        assert "descendant-join emp" in plan

    def test_verify(self, db):
        assert db.verify() == len(db.tags())


class TestRemoveDocument:
    def test_remove_updates_queries(self):
        db = XmlDatabase.create()
        db.add_document(DOC_A, name="alpha")
        db.add_document(DOC_B, name="beta")
        before = len(db.query("//emp//name"))
        db.remove_document(1)
        after = db.query("//emp//name")
        assert len(after) < before
        assert all(m.doc_id == 2 for m in after.matches)
        assert db.documents() == [(2, "beta")]

    def test_indexes_stay_valid_after_removal(self):
        from repro.workloads import department_dataset

        db = XmlDatabase.create(page_size=1024)
        data1 = department_dataset(800, seed=82)
        data2 = department_dataset(800, seed=83)
        db.add_document(data1.document, name="one")
        db.add_document(data2.document, name="two")
        db.remove_document(1)
        for tag in db.tags():
            check_xrtree(db._tree_for(tag))
        result = db.query("//employee//name")
        assert all(m.doc_id == 2 for m in result.matches)

    def test_remove_unknown_or_twice_raises(self):
        from repro.core.database import XmlDatabaseError

        db = XmlDatabase.create()
        db.add_document(DOC_A)
        with pytest.raises(XmlDatabaseError):
            db.remove_document(5)
        db.remove_document(1)
        with pytest.raises(XmlDatabaseError):
            db.remove_document(1)

    def test_remove_all_then_add(self):
        db = XmlDatabase.create()
        db.add_document(DOC_A)
        db.remove_document(1)
        assert db.element_count() == 0
        new_id = db.add_document(DOC_B, name="fresh")
        assert new_id == 2
        assert len(db.query("//emp")) == 1

    def test_removal_persists(self, tmp_path):
        path = str(tmp_path / "rm.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(DOC_A, name="alpha")
            db.add_document(DOC_B, name="beta")
            db.remove_document(2)
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.documents() == [(1, "alpha")]
            assert all(m.doc_id == 1
                       for m in db.query("//emp//name").matches)


class TestRemovalCostsTheDocument:
    """Removing a document reads what the document holds, not the corpus."""

    ELEMENTS = 300

    def removal_requests(self, documents, victim):
        from repro.workloads import department_dataset

        document = department_dataset(self.ELEMENTS, seed=84).document
        elements = sum(1 for _node in document)
        db = XmlDatabase.create(page_size=1024, buffer_pages=64)
        for _ in range(documents):
            db.add_document(document)
        db.flush()
        levels = sum(db._tree_for(tag).height for tag in db.tags())
        stats = db._context.pool.stats
        before = stats.requests
        db.remove_document(victim)
        requests = stats.requests - before
        assert db.verify() == len(db.tags())
        assert db.element_count() == (documents - 1) * elements
        return requests, elements, levels

    @pytest.mark.parametrize("victim", [1, 10])
    def test_page_requests_follow_the_document_not_the_corpus(self, victim):
        requests, elements, levels = self.removal_requests(20, victim)
        # Measured 0.35 (oldest document) and 0.5 (one in the middle) per
        # element; scanning every leaf of every tree and then descending
        # once per element made 6 and 14.
        assert requests <= 3 * elements
        # A doubled corpus may make a tree one level taller, and each
        # descent then reads one page more: allow for the levels the
        # trees gained, whatever the leaf fill that decided when they
        # gained them, but not for a removal that reads the corpus.
        doubled, _, more_levels = self.removal_requests(40, victim)
        assert doubled <= 1.25 * requests * more_levels / levels


class TestRegistry:
    def test_registry_holds_live_documents_only(self):
        import json

        db = XmlDatabase.create()
        for round_number in range(30):
            db.add_document(DOC_A, name="doc")
            if round_number >= 2:
                db.remove_document(round_number - 1)
        db.flush()
        stored = json.loads(db._catalog.load_blob("__documents__"))
        assert [info["id"] for info in stored["documents"]] == [29, 30]
        assert stored["next_id"] == 31
        assert db.add_document(DOC_B) == 31  # ids are never reused

    def test_registry_is_staged_once_per_flush(self, monkeypatch):
        db = XmlDatabase.create()
        saves = []
        save_blob = db._catalog.save_blob
        monkeypatch.setattr(db._catalog, "save_blob",
                            lambda name, data: (saves.append(name),
                                                save_blob(name, data)))
        db.add_document(DOC_A)
        db.add_document(DOC_B)
        db.remove_document(1)
        assert saves == []
        db.flush()
        assert saves == ["__documents__"]
        db.flush()  # clean: nothing to write
        assert saves == ["__documents__"]

    def test_scrub_and_rebuild_commit_the_registry_with_the_trees(
            self, tmp_path):
        """The scrubber syncs before its cold reads — a commit that never
        passes through ``flush()``.  It must carry the registry too, or a
        crash right after leaves trees indexing a document the registry
        never heard of (and hands its id and region out again)."""
        path = str(tmp_path / "scrubbed.db")
        db = XmlDatabase.create(path, page_size=1024)
        db.add_document(DOC_A, name="alpha")
        db.scrub()
        db.add_document(DOC_B, name="beta")
        db.rebuild_index("name")
        db.abandon()  # crash: nothing else reaches the file
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.documents() == [(1, "alpha"), (2, "beta")]
            names = db.entries_for_tag("name")
            assert {db.locate(entry)[0] for entry in names} \
                == {"alpha", "beta"}
            assert db.add_document(DOC_A, name="gamma") == 3
            starts = [entry.start for entry in db.entries_for_tag("name")]
            assert len(starts) == len(set(starts)) == len(names) + 2
            assert db.verify() == len(db.tags())

    def test_element_count_mismatch_is_reported(self):
        db = XmlDatabase.create()
        db.add_document(DOC_A)
        db.add_document(DOC_B)
        db._tree_for("name").delete(db.entries_for_tag("name")[0].start)
        with pytest.raises(XmlDatabaseError,
                           match="recorded 5 elements but its region holds 4"):
            db.remove_document(1)

    def test_foreign_elements_in_the_region_are_reported(self):
        db = XmlDatabase.create()
        db.add_document(DOC_A)
        db.add_document(DOC_B)
        db._documents[1]["span"] += 1000  # a region reaching into doc 2
        before = db.documents(), db.tags(), db.element_count()
        with pytest.raises(XmlDatabaseError,
                           match="holds 10, 5 of them its own"):
            db.remove_document(1)
        # Raised before the first cut: document 2 kept its elements.
        assert (db.documents(), db.tags(), db.element_count()) == before
        assert db.verify() == len(db.tags())

    def test_tombstoned_registry_still_opens(self, tmp_path):
        """Files written before ids were stored list every document ever
        added, removed ones tombstoned, without element counts."""
        import json

        path = str(tmp_path / "old.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            for name in ("alpha", "beta", "gamma"):
                db.add_document(DOC_A if name != "beta" else DOC_B,
                                name=name)
            db.remove_document(1)
            db.flush()
            new_form = json.loads(db._catalog.load_blob("__documents__"))
            spans = {1: parse_document(DOC_A).root.end}
            old_form = {
                "documents": [
                    {"name": "alpha", "offset": 0, "span": spans[1],
                     "removed": True}]
                + [{key: info[key] for key in ("name", "offset", "span")}
                   for info in new_form["documents"]],
                "tags": new_form["tags"],
                "next_base": new_form["next_base"],
            }
            db._catalog.save_blob("__documents__",
                                  json.dumps(old_form).encode("utf-8"))
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.documents() == [(2, "beta"), (3, "gamma")]
            assert db.locate(db.entries_for_tag("office")[0])[0] == "beta"
            db.remove_document(2)  # no recorded count: the check is skipped
            assert db.add_document(DOC_B, name="delta") == 4
            assert db.verify() == len(db.tags())
        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.documents() == [(3, "gamma"), (4, "delta")]
            stored = json.loads(db._catalog.load_blob("__documents__"))
            assert stored["next_id"] == 5


class TestPersistence:
    def test_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "xml.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(DOC_A, name="alpha")
            db.add_document(DOC_B, name="beta")
            before = db.query("//emp//name").starts()

        with XmlDatabase.open(path, page_size=1024) as db:
            assert db.documents() == [(1, "alpha"), (2, "beta")]
            assert db.query("//emp//name").starts() == before
            for tag in db.tags():
                check_xrtree(db._tree_for(tag))

    def test_add_after_reopen(self, tmp_path):
        path = str(tmp_path / "xml2.db")
        with XmlDatabase.create(path, page_size=1024) as db:
            db.add_document(DOC_A)
        with XmlDatabase.open(path, page_size=1024) as db:
            db.add_document(DOC_B)
            assert len(db.documents()) == 2
            assert len(db.query("//emp//name")) == 3
        with XmlDatabase.open(path, page_size=1024) as db:
            assert len(db.documents()) == 2
            assert len(db.query("//emp//name")) == 3
