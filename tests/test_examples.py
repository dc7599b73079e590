"""Smoke tests: every example script runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + list(argv)
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "emp//name pairs:" in out
        assert "parent-child" in out

    def test_department_workload(self, capsys):
        run_example("department_workload.py", ["1200"])
        out = capsys.readouterr().out
        assert "employee_name" in out
        assert "paper_author" in out

    def test_path_queries(self, capsys):
        run_example("path_queries.py", ["1200"])
        out = capsys.readouterr().out
        assert "identical matches" in out

    def test_dynamic_maintenance(self, capsys):
        run_example("dynamic_maintenance.py")
        out = capsys.readouterr().out
        assert "invariants hold" in out

    def test_persistent_database(self, capsys):
        run_example("persistent_database.py")
        out = capsys.readouterr().out
        assert "catalog:" in out
        assert "employees index intact" in out

    def test_twig_queries(self, capsys):
        run_example("twig_queries.py", ["2", "900"])
        out = capsys.readouterr().out
        assert "corpus: 2 documents" in out
        assert "//employee[email]" in out
