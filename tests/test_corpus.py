"""Multi-document corpora in one database.

The join definition (Section 2.2) is per-document: a pair qualifies only
when ``a.DocId == d.DocId``.  :class:`~repro.core.database.XmlDatabase`
gives each added document an id and its own region range, so one index
per tag covers the whole collection with unique start keys and the merge
joins keep their single scan.
"""

import pytest

from repro.core import XmlDatabase, structural_join
from repro.core.api import oracle_join
from repro.joins.base import sort_pairs
from repro.xmldata.parser import parse_document

FIRST = "<a><b><c/></b><c/></a>"
SECOND = "<a><b><c/><c/></b></a>"


def two_document_database():
    db = XmlDatabase.create()
    db.add_document(FIRST)
    db.add_document(SECOND)
    return db


class TestCorpusBasics:
    def test_add_assigns_sequential_ids(self):
        db = two_document_database()
        assert [doc_id for doc_id, _name in db.documents()] == [1, 2]
        assert [e.doc_id for e in db.entries_for_tag("a")] == [1, 2]

    def test_offsets_are_disjoint(self):
        db = two_document_database()
        first = db.entries_for_tag("a")
        assert first[0].doc_id == 1
        assert first[1].doc_id == 2
        assert first[0].end < first[1].start  # disjoint region ranges

    def test_entries_sorted_globally(self):
        db = two_document_database()
        entries = db.entries_for_tag("c")
        starts = [e.start for e in entries]
        assert starts == sorted(starts)
        assert len(entries) == 4

    def test_unique_starts_across_documents(self):
        db = two_document_database()
        everything = []
        for tag in db.tags():
            everything.extend(db.entries_for_tag(tag))
        starts = [e.start for e in everything]
        assert len(starts) == len(set(starts))

    def test_tags_and_counts(self):
        db = two_document_database()
        assert set(db.tags()) == {"a", "b", "c"}
        assert db.element_count() == 4 + 4

    def test_locate_roundtrip(self):
        db = two_document_database()
        entry = db.entries_for_tag("b")[1]  # from document 2
        name, start, end = db.locate(entry)
        assert name == "doc-2"
        local = parse_document(SECOND).elements_by_tag("b")[0]
        assert (start, end) == (local.start, local.end)

    def test_documents_not_mutated(self):
        db = XmlDatabase.create()
        document = parse_document(FIRST)
        before = [(n.start, n.end) for n in document]
        db.add_document("<x><y/></x>")
        db.add_document(document)
        assert [(n.start, n.end) for n in document] == before
        db.add_document(FIRST)  # the same document again, as text
        stored = {}
        for tag in db.tags():
            for entry in db.entries_for_tag(tag):
                name, start, end = db.locate(entry)
                stored.setdefault(name, set()).add(
                    (tag, start, end, entry.level, entry.ptr))
        assert stored["doc-2"] == stored["doc-3"]


class TestCorpusJoins:
    @pytest.mark.parametrize("algorithm",
                             ["stack-tree", "mpmgjn", "b+", "xr-stack"])
    def test_join_never_crosses_documents(self, algorithm):
        db = two_document_database()
        ancestors = db.entries_for_tag("b")
        descendants = db.entries_for_tag("c")
        outcome = structural_join(ancestors, descendants,
                                  algorithm=algorithm)
        assert all(a.doc_id == d.doc_id for a, d in outcome.pairs)
        assert sort_pairs(outcome.pairs) == oracle_join(ancestors,
                                                        descendants)
        # doc 1: b contains one c; doc 2: b contains two c's.
        assert outcome.stats.pairs == 3

    def test_corpus_of_generated_documents(self):
        from repro.xmldata.dtd import DEPARTMENT_DTD
        from repro.xmldata.generator import XmlGenerator

        db = XmlDatabase.create()
        generator = XmlGenerator(DEPARTMENT_DTD, seed=2)
        for document in generator.generate_corpus(3, 600):
            db.add_document(document)
        ancestors = db.entries_for_tag("employee")
        descendants = db.entries_for_tag("name")
        outcome = structural_join(ancestors, descendants,
                                  algorithm="xr-stack")
        assert sort_pairs(outcome.pairs) == oracle_join(ancestors,
                                                        descendants)
        assert {e.doc_id for e in ancestors} == {1, 2, 3}
