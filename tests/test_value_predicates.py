"""Tests for attributes and value predicates (the paper's "combination of
value search and structure search")."""

import pytest

from repro.query import PathQueryEngine, parse_path
from repro.query.engine import QueryError
from repro.query.path import AttributePredicate, PathSyntaxError
from repro.xmldata.parser import parse_document, serialize_document

SOURCE = """
<dept>
  <emp id="e1" grade="senior"><name>w</name>
    <emp id="e2" grade="junior"><name>x</name></emp>
  </emp>
  <emp id="e3" grade="senior"><name>y</name></emp>
  <emp id="e4"><name>z</name></emp>
</dept>
"""


@pytest.fixture(scope="module")
def engine():
    return PathQueryEngine(parse_document(SOURCE))


class TestAttributeModel:
    def test_parser_stores_attributes(self):
        doc = parse_document(SOURCE)
        emps = doc.elements_by_tag("emp")
        assert emps[0].attributes == {"id": "e1", "grade": "senior"}
        assert emps[3].attributes == {"id": "e4"}

    def test_serializer_emits_attributes(self):
        doc = parse_document('<a x="1" y="a &amp; b"><b/></a>')
        again = parse_document(serialize_document(doc))
        assert again.root.attributes == {"x": "1", "y": "a & b"}

    def test_attribute_quotes_escaped(self):
        doc = parse_document("<a/>")
        doc.root.attributes["q"] = 'say "hi"'
        again = parse_document(serialize_document(doc))
        assert again.root.attributes["q"] == 'say "hi"'

    def test_node_at_roundtrip(self):
        doc = parse_document(SOURCE)
        entries = doc.entries_for_tag("emp")
        for entry in entries:
            node = doc.node_at(entry.ptr)
            assert node.tag == "emp"
            assert node.start == entry.start

    def test_generator_id_attributes(self):
        from repro.xmldata.dtd import DEPARTMENT_DTD
        from repro.xmldata.generator import GeneratorConfig, XmlGenerator

        config = GeneratorConfig(id_attributes=True)
        doc = XmlGenerator(DEPARTMENT_DTD, config, seed=1).generate(200)
        ids = [node.attributes.get("id") for node in doc
               if node.tag != "departments"]
        assert all(ids)
        assert len(set(ids)) == len(ids)  # unique


class TestParsingValuePredicates:
    def test_existence(self):
        step = parse_path("//emp[@grade]").steps[0]
        assert step.predicates == (AttributePredicate("grade"),)

    def test_equality_quoted(self):
        step = parse_path('//emp[@grade="senior"]').steps[0]
        assert step.predicates[0].value == "senior"

    def test_equality_bare(self):
        step = parse_path("//emp[@grade=senior]").steps[0]
        assert step.predicates[0].value == "senior"

    def test_mixed_with_structural(self):
        step = parse_path('//emp[@grade="senior"][name]').steps[0]
        assert isinstance(step.predicates[0], AttributePredicate)
        assert not isinstance(step.predicates[1], AttributePredicate)

    def test_str_roundtrip(self):
        for text in ('//emp[@grade="senior"]', "//emp[@id]",
                     '//emp[@a="1"]/name'):
            assert str(parse_path(text)) == text

    @pytest.mark.parametrize("bad", ["//a[@]", "//a[@=x]", '//a[@b="]',
                                     "//a[@b=]"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)


class TestEvaluation:
    def test_existence_filter(self, engine):
        assert len(engine.evaluate("//emp[@grade]")) == 3
        assert len(engine.evaluate("//emp[@id]")) == 4

    def test_equality_filter(self, engine):
        assert len(engine.evaluate('//emp[@grade="senior"]')) == 2
        assert len(engine.evaluate('//emp[@grade="junior"]')) == 1
        assert len(engine.evaluate('//emp[@grade="none"]')) == 0

    def test_value_then_structure(self, engine):
        # Names of senior employees.
        result = engine.evaluate('//emp[@grade="senior"]/name')
        assert len(result) == 2

    def test_value_and_structure_conjunction(self, engine):
        # Senior employees that manage someone.
        result = engine.evaluate('//emp[@grade="senior"][emp]')
        assert len(result) == 1

    def test_specific_id(self, engine):
        result = engine.evaluate('//emp[@id="e2"]')
        assert len(result) == 1
        node = engine.document.node_at(result.matches[0].ptr)
        assert node.attributes["id"] == "e2"

    def test_view_without_node_access_raises(self, engine):
        class _View:
            def entries_for_tag(self, tag):
                return engine.document.entries_for_tag(tag)

            def tags(self):
                return engine.document.tags()

        blind = PathQueryEngine(_View())
        with pytest.raises(QueryError):
            blind.evaluate("//emp[@grade]")
