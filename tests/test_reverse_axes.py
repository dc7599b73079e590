"""Tests for reverse axes (parent:: / ancestor::) in path expressions."""

import pytest

from repro.obs import QueryProfile
from repro.query import PathQueryEngine, parse_path
from repro.query.engine import QueryError
from repro.query.path import Axis, PathSyntaxError
from repro.xmldata.parser import parse_document

SOURCE = """
<dept>
  <emp><name>w</name>
    <emp><name>x</name>
      <emp><name>y</name></emp>
    </emp>
  </emp>
  <office><name>sign</name></office>
</dept>
"""


@pytest.fixture(scope="module")
def engine():
    return PathQueryEngine(parse_document(SOURCE))


class TestParsing:
    def test_parent_axis(self):
        path = parse_path("//name/parent::emp")
        assert path.steps[1].axis is Axis.PARENT
        assert path.steps[1].tag == "emp"

    def test_ancestor_axis(self):
        path = parse_path("//name/ancestor::dept")
        assert path.steps[1].axis is Axis.ANCESTOR

    def test_explicit_forward_axes(self):
        path = parse_path("/child::a/descendant::b")
        assert path.steps[0].axis is Axis.CHILD
        assert path.steps[1].axis is Axis.DESCENDANT

    def test_str_roundtrip(self):
        for text in ("//name/parent::emp", "//name/ancestor::dept",
                     "//a/parent::b//c"):
            assert str(parse_path(text)) == text

    def test_axis_words_usable_as_tags(self):
        path = parse_path("//parent/child")
        assert path.steps[0].tag == "parent"
        assert path.steps[1].tag == "child"
        assert path.steps[1].axis is Axis.CHILD

    @pytest.mark.parametrize("bad", ["//a/parent::", "//a/sideways::b"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)


class TestEvaluation:
    def test_parent_of_names(self, engine):
        # name elements whose parent is an emp: w, x, y names -> 3 emps.
        result = engine.evaluate("//name/parent::emp")
        assert len(result) == 3
        assert all(m.level in (1, 2, 3) for m in result.matches)

    def test_parent_filters_by_tag(self, engine):
        # The sign name's parent is an office, not an emp.
        result = engine.evaluate("//name/parent::office")
        assert len(result) == 1

    def test_ancestor_axis_collects_chain(self, engine):
        # emp ancestors of the deepest name: all three enclosing emps.
        result = engine.evaluate("//emp//name/ancestor::emp")
        assert len(result) == 3

    def test_reverse_then_forward(self, engine):
        # Names of the emps that have a name (round trip through parent).
        result = engine.evaluate("//name/parent::emp/name")
        assert len(result) == 3

    def test_reverse_step_with_predicate(self, engine):
        result = engine.evaluate("//name/parent::emp[emp]")
        assert len(result) == 2  # the two emps that contain another emp

    def test_matches_tree_walk_oracle(self):
        from repro.workloads import department_dataset

        doc = department_dataset(1200, seed=91).document
        engine = PathQueryEngine(doc)
        got = engine.evaluate("//email/parent::employee").starts()
        expected = sorted({
            node.parent.start
            for node in doc.elements_by_tag("email")
            if node.parent is not None and node.parent.tag == "employee"
        })
        assert got == expected
        got = engine.evaluate("//name/ancestor::department").starts()
        expected = sorted({
            walker.start
            for node in doc.elements_by_tag("name")
            for walker in _ancestors(node)
            if walker.tag == "department"
        })
        assert got == expected

    def test_leading_reverse_axis_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.evaluate("/parent::emp")

    def test_explain_rejects_what_evaluate_rejects(self, engine):
        from repro.core.database import XmlDatabase

        db = XmlDatabase.create()
        db.add_document(SOURCE)
        with db.session() as session:
            for explain in (engine.explain, db.explain, session.explain):
                for analyze in (False, True):
                    with pytest.raises(QueryError, match="reverse axis"):
                        explain("parent::emp", analyze=analyze)

    def test_reverse_axis_in_predicate_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.evaluate("//name[parent::emp]")

    def test_explain_shows_probe(self, engine):
        plan = engine.explain("//name/parent::emp")
        assert "parent-probe into emp" in plan

    def test_wildcard_reverse_step_is_one_semi_join(self, engine):
        """``*`` has no tree to probe: the step semi-joins the merged set
        against its context, as one step operator."""
        profile = QueryProfile()
        plan = engine.explain("//name/parent::*", profile=profile)
        assert "parent-join * (" in plan
        assert [op.name for op in profile.operators] == [
            "scan //name", "parent-join //*"]
        step = profile.operators[1]
        assert step.rows_out == 4  # three emps and the office
        assert step.ancestor_skips == 0


def _ancestors(node):
    walker = node.parent
    while walker is not None:
        yield walker
        walker = walker.parent
