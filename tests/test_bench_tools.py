"""Tests for bench tooling: ASCII figures, the CLI entry points."""

import pytest

from repro.bench.figures import ascii_chart
from repro.bench.harness import ExperimentConfig, run_selectivity_sweep

TINY = ExperimentConfig(target_elements=900, steps=(0.7, 0.1))


@pytest.fixture(scope="module")
def sweep():
    return run_selectivity_sweep("employee_name", "ancestors", TINY)


class TestAsciiChart:
    def test_renders_all_series(self, sweep):
        chart = ascii_chart(sweep, title="demo")
        assert chart.startswith("demo")
        assert "N=NIDX" in chart and "B=B+" in chart and "X=XR" in chart
        assert "70%" in chart and "10%" in chart

    def test_glyphs_present(self, sweep):
        chart = ascii_chart(sweep)
        body = chart.split("+")[0]
        assert any(glyph in body for glyph in ("N", "B", "X", "*"))

    def test_metric_selection(self, sweep):
        chart = ascii_chart(sweep, metric="elements_scanned")
        assert "|" in chart

    def test_dimensions_respected(self, sweep):
        chart = ascii_chart(sweep, width=30, height=8)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert len(rows) == 8
        assert all(len(row) <= 30 + 12 for row in rows)


class TestBenchCli:
    def test_main_skip_studies(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = str(tmp_path / "report.md")
        main(["--scale", "900", "--skip-studies", "--out", out])
        text = open(out).read()
        assert "# XR-tree reproduction results" in text
        assert "T2a / F8a" in text
        assert "Figure 8 analogue" in text
        assert "paper:NIDX" in text


class TestQueryCli:
    def test_generate_mode(self, capsys):
        from repro.query.__main__ import main

        assert main(["//employee//name", "--generate", "800"]) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "region (" in out

    def test_file_mode(self, tmp_path, capsys):
        from repro.query.__main__ import main

        path = tmp_path / "doc.xml"
        path.write_text("<a><b><c/></b><b/></a>")
        assert main(["//a/b", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 matches" in out

    def test_requires_exactly_one_source(self, capsys):
        from repro.query.__main__ import main

        with pytest.raises(SystemExit):
            main(["//a"])
        with pytest.raises(SystemExit):
            main(["//a", "--file", "x.xml", "--generate", "10"])

    def test_explain_flag(self, capsys):
        from repro.query.__main__ import main

        assert main(["//employee[email]/name", "--generate", "600",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "semi-join filter" in out
