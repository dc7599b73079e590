"""Package-level health checks: imports, exports, and API consistency."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import repro


def _all_modules():
    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


class TestImports:
    def test_every_module_imports(self):
        failures = []
        for name in _all_modules():
            if name.endswith("__main__"):
                continue  # CLIs run main() on import via runpy only
            try:
                importlib.import_module(name)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((name, exc))
        assert not failures, failures

    def test_module_count_is_substantial(self):
        assert len(_all_modules()) >= 30

    def test_all_exports_resolve(self):
        for package_name in ("repro", "repro.storage", "repro.xmldata",
                             "repro.indexes", "repro.joins",
                             "repro.workloads", "repro.query",
                             "repro.core", "repro.bench"):
            package = importlib.import_module(package_name)
            for symbol in getattr(package, "__all__", []):
                assert hasattr(package, symbol), (package_name, symbol)


class TestApiConsistency:
    def test_algorithms_tuple_matches_dispatch(self, dept_data):
        from repro.core.api import ALGORITHMS, structural_join

        for algorithm in ALGORITHMS:
            outcome = structural_join(dept_data.ancestors[:50],
                                      dept_data.descendants[:50],
                                      algorithm=algorithm)
            assert outcome.algorithm == algorithm

    def test_version_string(self):
        assert repro.__version__

    def test_docstrings_everywhere(self):
        missing = []
        for name in _all_modules():
            if name.endswith("__main__"):
                continue
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                missing.append(name)
        assert not missing, "modules without docstrings: %s" % missing


class TestBenchmarkPatchPoints:
    """``benchmarks/perf/tracing.py`` installs its proxies with
    ``owner.__dict__[attribute]``: a traced method moved to a base class is
    a ``KeyError`` in every traced run, so it has to fail here first."""

    @staticmethod
    def _tracing():
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "benchmarks", "perf", "tracing.py")
        spec = importlib.util.spec_from_file_location("perf_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_patch_point_is_defined_on_its_owner(self):
        missing = [(getattr(owner, "__name__", owner), attribute)
                   for owner, attribute, _kind, _span
                   in self._tracing()._patch_points()
                   if attribute not in owner.__dict__]
        assert not missing

    def test_join_runner_names_resolve(self):
        from repro.joins.registry import get_algorithm

        for algorithm in self._tracing().JOIN_RUNNERS:
            assert callable(get_algorithm(algorithm).runner)
