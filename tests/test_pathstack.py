"""Tests for the holistic PathStack executor (repro.query.pathstack)."""

import itertools

import pytest

from repro.query import PathQueryEngine, parse_path
from repro.query.path import Axis
from repro.query.pathstack import evaluate_path_stack, path_stack
from repro.xmldata.parser import parse_document
from tests.test_xrtree_property import tree_shape_to_entries

SOURCE = """
<dept>
  <emp><name>w</name>
    <emp><name>x</name>
      <emp><name>y</name></emp>
    </emp>
  </emp>
  <emp><name>z</name></emp>
  <office><name>sign</name></office>
</dept>
"""


def oracle_solutions(document, path_text):
    """Brute-force all embeddings of a linear path pattern."""
    expression = parse_path(path_text)
    steps = expression.steps
    candidates = [document.elements_by_tag(step.tag) for step in steps]
    if steps[0].axis is Axis.CHILD:
        candidates[0] = [e for e in candidates[0] if e.level == 0]
    out = []
    for combo in itertools.product(*candidates):
        ok = True
        for (step, upper), lower in zip(zip(steps[1:], combo), combo[1:]):
            if not (upper.start < lower.start and lower.end < upper.end):
                ok = False
                break
            if step.axis is Axis.CHILD and upper.level != lower.level - 1:
                ok = False
                break
        # Re-check axes properly: steps[i].axis links combo[i-1] -> combo[i].
        if ok:
            for i in range(1, len(combo)):
                upper, lower = combo[i - 1], combo[i]
                if not (upper.start < lower.start and lower.end < upper.end):
                    ok = False
                    break
                if steps[i].axis is Axis.CHILD and \
                        upper.level != lower.level - 1:
                    ok = False
                    break
        if ok:
            out.append(tuple((e.start, e.end) for e in combo))
    return sorted(out)


def run_pathstack(document, path_text):
    result = evaluate_path_stack(document, path_text)
    return sorted(
        tuple((e.start, e.end) for e in solution)
        for solution in result.solutions
    )


@pytest.fixture(scope="module")
def document():
    return parse_document(SOURCE)


class TestAgainstOracle:
    @pytest.mark.parametrize("path", [
        "//emp//name",
        "//emp/name",
        "//dept//emp//name",
        "//emp//emp",
        "//emp//emp//name",
        "//emp/emp/name",
        "/dept/emp",
        "//dept//name",
    ])
    def test_small_document(self, document, path):
        assert run_pathstack(document, path) == \
            oracle_solutions(document, path)

    def test_generated_documents(self):
        from repro.workloads import department_dataset

        doc = department_dataset(700, seed=51).document
        for path in ("//employee//name", "//employee/name",
                     "//department//employee//employee",
                     "//employee//email"):
            assert run_pathstack(doc, path) == oracle_solutions(doc, path)

    def test_random_shapes_single_tag(self):
        # Self-paths over one tag exercise the same-element tie-breaking.
        from repro.xmldata.model import Document, Element, annotate_regions

        for shape in ([1, 2, 1, 2], [3, 3, 3], [2, 2, 2, 2, 2]):
            entries = tree_shape_to_entries(shape)

            class _Doc:
                def entries_for_tag(self, tag):
                    return entries

            result = path_stack([entries, entries],
                                [Axis.DESCENDANT, Axis.DESCENDANT])
            expected = sum(
                1
                for a in entries for d in entries
                if a.start < d.start and d.end < a.end
            )
            assert result.count == expected


class TestApi:
    def test_count_only_mode(self, document):
        collected = evaluate_path_stack(document, "//emp//name")
        counted = evaluate_path_stack(document, "//emp//name",
                                      collect=False)
        assert counted.count == collected.count
        assert counted.solutions == []

    def test_last_elements_match_pipeline_engine(self):
        from repro.workloads import department_dataset

        doc = department_dataset(900, seed=52).document
        engine = PathQueryEngine(doc)
        for path in ("//employee//name", "//department//employee/name",
                     "//employee//employee"):
            holistic = evaluate_path_stack(doc, path)
            pipeline = engine.evaluate(path)
            assert [e.start for e in holistic.last_elements()] == \
                pipeline.starts()
            # One synchronized pass: no stream element is scanned twice.
            streams = sum(len(doc.entries_for_tag(step.tag))
                          for step in parse_path(path).steps)
            assert holistic.stats.elements_scanned <= streams + 1

    def test_predicates_rejected(self, document):
        with pytest.raises(ValueError):
            evaluate_path_stack(document, "//emp[name]")

    def test_empty_stream_short_circuits(self, document):
        result = evaluate_path_stack(document, "//emp//ghost")
        assert result.count == 0

    def test_stats_track_elements(self, document):
        result = evaluate_path_stack(document, "//emp//name")
        assert result.stats.elements_scanned > 0

    def test_solution_count_can_exceed_distinct_matches(self, document):
        # y's name has three emp ancestors: three path solutions, one
        # distinct final element.
        result = evaluate_path_stack(document, "//emp//name")
        assert result.count > len(result.last_elements())
