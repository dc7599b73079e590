"""Tests for query plan explanation (PathQueryEngine.explain)."""

import pytest

from repro.obs import QueryProfile
from repro.query import PathQueryEngine
from repro.xmldata.parser import parse_document

SOURCE = """
<dept>
  <emp id="e1"><name>w</name><email/>
    <emp id="e2"><name>x</name></emp>
  </emp>
</dept>
"""


@pytest.fixture(scope="module")
def engine():
    return PathQueryEngine(parse_document(SOURCE))


class TestExplain:
    def test_single_step(self, engine):
        plan = engine.explain("//emp")
        assert "scan emp" in plan
        assert "-> 2 elements" in plan

    def test_join_lines(self, engine):
        plan = engine.explain("//dept//emp/name")
        assert "descendant-join dept (1) with emp (2)" in plan
        assert "child-join emp (≤2) with name (2)" in plan

    def test_structural_predicate_line(self, engine):
        plan = engine.explain("//emp[email]/name")
        assert "semi-join filter [email]" in plan

    def test_predicated_ancestor_size_is_an_upper_bound(self, engine):
        """``[email]`` filters the two ``emp`` to one before the join, so
        the plan prints the unfiltered size as a bound."""
        profile = QueryProfile()
        plan = engine.explain("//emp[email]/name", profile=profile)
        assert "child-join emp (≤2) with name (2)" in plan
        join = next(op for op in profile.operators if op.kind == "join")
        assert join.input_a == 1

    def test_only_the_first_unfiltered_set_is_exact(self, engine):
        """A later step's ancestor side is what the steps before it
        matched, so its whole tag set is printed as a bound, and its pair
        estimate says it sampled that whole set; the first step's
        unfiltered set is exact."""
        plan = engine.explain("//dept//emp/name")
        lines = plan.splitlines()
        assert "  descendant-join dept (1) with emp (2) -> ~2 pairs, " \
            "~100% of emp match" in lines
        assert "  child-join emp (≤2) with name (2) -> ~2 pairs, ~100% of " \
            "name match, sampled from the unfiltered emp set" in lines
        predicated = engine.explain("//emp[email]/name")
        assert "sampled from the unfiltered emp set" in predicated
        reverse = engine.explain("//name/parent::emp/name")
        assert "child-join emp (≤2) with name (2)" in reverse
        assert "sampled from the unfiltered emp set" in reverse

    def test_profile_line_says_what_the_estimate_sampled(self, engine):
        """EXPLAIN ANALYZE's operator line carries the plan's note: the
        ``emp -> name`` estimate read both ``emp``, the join got one."""
        profile = QueryProfile()
        report = engine.explain("//emp[email]/name", profile=profile)
        join = next(op for op in profile.operators if op.kind == "join")
        assert join.est_sampled_from == "emp"
        assert join.to_dict()["est_sampled_from"] == "emp"
        line = next(line for line in report.splitlines()
                    if line.strip().startswith(join.name)
                    and "est ~" in line)
        assert "est ~2 pairs (sampled from the unfiltered emp set) -> " \
            in line
        exact = QueryProfile()
        engine.explain("//dept//emp", profile=exact)
        first = next(op for op in exact.operators if op.kind == "join")
        assert first.est_pairs is not None
        assert first.est_sampled_from is None
        assert "sampled" not in exact.render()

    @pytest.mark.parametrize("path", ["//emp[email]/name",
                                      "//name/parent::*/ancestor::dept"])
    def test_every_page_request_belongs_to_an_operator(self, path):
        """A predicate's candidate sets and the merged ``*`` set are read
        inside the operators that consume them."""
        engine = PathQueryEngine(parse_document(SOURCE))
        profile = QueryProfile()
        engine.evaluate(path, profile=profile)
        assert profile.page_requests > 0
        assert profile.total("page_requests") == profile.page_requests

    def test_value_predicate_line(self, engine):
        plan = engine.explain('//emp[@id="e1"]')
        assert 'filter [@id="e1"] (value lookup per match)' in plan

    def test_estimates_present(self, engine):
        plan = engine.explain("//dept//emp")
        assert "~" in plan and "pairs" in plan

    def test_explain_does_not_execute_joins(self, engine):
        # explain() must not run semi-joins: a path over a huge synthetic
        # set explains instantly and leaves no join statistics behind.
        plan = engine.explain("//dept//emp//name")
        assert plan.startswith("plan for //dept//emp//name")

    def test_strategy_shown(self):
        engine = PathQueryEngine(parse_document(SOURCE),
                                 strategy="stack-tree")
        assert "strategy=stack-tree" in engine.explain("//emp")

    def test_plan_matches_execution(self, engine):
        # Sanity: the sizes explain() prints are the sizes evaluate() uses.
        plan = engine.explain("//emp/name")
        result = engine.evaluate("//emp/name")
        assert "emp (2)" in plan
        assert len(result) == 2

    def test_absolute_first_step_plans_what_runs(self):
        """``/a`` binds only the root ``a``: the plan's scan line and first
        estimate count that one element, and the operator says ``/a``."""
        engine = PathQueryEngine(parse_document(
            "<a><a><b/></a><b/><a><a><b/></a></a></a>"))
        profile = QueryProfile()
        plan = engine.explain("/a/b", profile=profile)
        assert "scan a                    -> 1 elements" in plan
        assert "child-join a (1) with b (3) -> ~1 pairs" in plan
        assert [op.name for op in profile.operators] == [
            "scan /a", "child-join //b"]
        assert profile.operators[0].rows_out == 1
        assert len(engine.evaluate("/a/b")) == 1
