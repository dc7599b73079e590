"""Tests for the benchmark harness and studies (repro.bench)."""

import pytest

from repro.bench.harness import (
    SELECTIVITY_STEPS,
    ExperimentConfig,
    run_selectivity_sweep,
)
from repro.bench.paper_numbers import PAPER_TABLES
from repro.bench.report import (
    format_elapsed_table,
    format_scanned_table,
    format_series,
)
from repro.bench.shapes import SHAPES
from repro.bench.studies import (
    ablation_buffer_sizes,
    ablation_split_keys,
    stab_list_study,
    update_cost_study,
)

SMALL = ExperimentConfig(target_elements=1500, steps=(0.7, 0.1))


@pytest.fixture(scope="module")
def small_sweep():
    return run_selectivity_sweep("employee_name", "ancestors", SMALL)


class TestHarness:
    def test_sweep_has_all_cells(self, small_sweep):
        assert len(small_sweep.cells) == len(SMALL.steps) * 3

    def test_cell_lookup(self, small_sweep):
        cell = small_sweep.cell(0.7, "xr-stack")
        assert cell.elements_scanned > 0
        assert cell.page_misses > 0
        with pytest.raises(KeyError):
            small_sweep.cell(0.33, "xr-stack")

    def test_series_extraction(self, small_sweep):
        series = small_sweep.series("stack-tree", "elements_scanned")
        assert [x for x, _ in series] == list(SMALL.steps)
        assert all(y > 0 for _, y in series)

    def test_pair_counts_agree_across_algorithms(self, small_sweep):
        for step in SMALL.steps:
            counts = {small_sweep.cell(step, a).pairs
                      for a in SMALL.algorithms}
            assert len(counts) == 1

    def test_workload_metadata_recorded(self, small_sweep):
        cell = small_sweep.cell(0.1, "xr-stack")
        assert abs(cell.join_a - 0.1) < 0.08
        assert cell.list_sizes[0] > 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_selectivity_sweep("employee_name", "sideways", SMALL)

    def test_descendant_protocol_runs(self):
        result = run_selectivity_sweep("paper_author", "descendants",
                                       SMALL)
        assert len(result.cells) == len(SMALL.steps) * 3

    def test_both_protocol_keeps_sizes(self):
        result = run_selectivity_sweep("employee_name", "both", SMALL)
        sizes = {cell.list_sizes for cell in result.cells}
        assert len(sizes) == 1  # constant across the sweep (Section 6.4)


class TestReport:
    def test_scanned_table_renders(self, small_sweep):
        text = format_scanned_table(small_sweep)
        assert "NIDX" in text and "XR" in text
        assert text.count("\n") == len(SMALL.steps)

    def test_scanned_table_with_paper_columns(self, small_sweep):
        text = format_scanned_table(small_sweep, "table2a")
        assert "paper:NIDX" in text

    def test_elapsed_table_renders(self, small_sweep):
        text = format_elapsed_table(small_sweep)
        assert "misses:XR" in text

    def test_series_renders(self, small_sweep):
        text = format_series(small_sweep)
        assert "XR:" in text and "(70%" in text

    def test_shape_checks_hold_on_real_sweep(self, small_sweep):
        rows = SHAPES["table2a"]
        assert rows["XR scans least at every step"](small_sweep)
        assert rows["the NIDX/XR scan ratio grows as Join-A falls"](
            small_sweep)


class TestEveryShapeHolds:
    """The tier-1 gate behind every ✓ in EXPERIMENTS.md: the whole report,
    every row of the shape table, at the smallest scale the rows hold on
    (2 000 elements barely exceed the 100-page pool)."""

    def test_report_exits_zero_with_every_row_ticked(self, tmp_path):
        from repro.bench.__main__ import main

        out = tmp_path / "report.md"
        assert main(["--scale", "4000", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("shape ✓") == sum(map(len, SHAPES.values())) >= 43
        assert "shape ✗" not in text

    def test_a_row_that_does_not_hold_fails_the_run(self, tmp_path,
                                                    monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setitem(SHAPES, "fig8b",
                            {"forced false": lambda sweep: False})
        out = tmp_path / "report.md"
        assert main(["--scale", "900", "--skip-studies",
                     "--out", str(out)]) == 1
        assert "shape ✗ fig8b: forced false" in out.read_text()


class TestPaperNumbers:
    @pytest.mark.parametrize("key", ["table2a", "table2b", "table3a",
                                     "table3b"])
    def test_tables_cover_all_steps(self, key):
        table = PAPER_TABLES[key]
        assert set(table) == set(SELECTIVITY_STEPS)
        for row in table.values():
            assert set(row) == {"NIDX", "B+", "XR"}

    def test_paper_shape_2a_xr_below_bplus_below_nidx(self):
        for row in PAPER_TABLES["table2a"].values():
            assert row["XR"] <= row["B+"] <= row["NIDX"]

    def test_paper_shape_2b_bplus_equals_nidx(self):
        for row in PAPER_TABLES["table2b"].values():
            assert row["B+"] == row["NIDX"]
            assert row["XR"] <= row["B+"]


class TestStudies:
    def test_stab_list_study_shapes(self):
        reports = stab_list_study(target_elements=1200,
                                  nesting_levels=(4, 10), seed=2,
                                  page_size=1024)
        assert len(reports) == 2
        shallow, deep = reports
        assert deep.nesting > shallow.nesting
        for report in reports:
            assert report.stabbed_elements <= report.elements
            # Section 3.3: total stab size much smaller than the leaf level.
            assert report.stab_to_leaf_ratio < 0.5

    def test_update_cost_study(self):
        reports = update_cost_study(target_elements=600, page_size=512,
                                    buffer_pages=16)
        by_key = {(r.structure, r.operation): r for r in reports}
        assert set(by_key) == {("b+tree", "insert"), ("b+tree", "delete"),
                               ("xr-tree", "insert"), ("xr-tree", "delete")}
        # Theorem 1: XR insert cost is B+-tree-like plus a small constant.
        assert by_key[("xr-tree", "insert")].misses_per_op <= \
            by_key[("b+tree", "insert")].misses_per_op + 5.0

    def test_split_key_ablation(self):
        cells = ablation_split_keys(target_elements=1200, page_size=512)
        optimized = [c for c in cells if "True" in c.setting][0]
        plain = [c for c in cells if "False" in c.setting][0]
        assert optimized.stabbed_elements <= plain.stabbed_elements

    def test_buffer_size_ablation(self):
        cells = ablation_buffer_sizes(target_elements=1500,
                                      buffer_sizes=(25, 200))
        # Section 6.1: performance is not essentially affected by buffer
        # size (ordered probes), so scans are identical and misses close.
        assert cells[0].elements_scanned == cells[1].elements_scanned
        small, large = cells[0].page_misses, cells[1].page_misses
        assert small <= large * 3 + 10
