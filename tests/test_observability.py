"""End-to-end observability: profiles, EXPLAIN ANALYZE, db metrics, CLI."""

import json

import pytest

from repro.core.database import XmlDatabase
from repro.obs import Observability, QueryProfile, Tracer
from repro.obs.validate import validate_jsonl
from repro.query.engine import PathQueryEngine
from repro.query.runtime import QueryContext
from repro.workloads.datasets import department_dataset

PATH = "//employee//name"


@pytest.fixture(scope="module")
def dataset():
    return department_dataset(3000, seed=7)


def _profiled_run(dataset, path=PATH, strategy="xr-stack"):
    engine = PathQueryEngine(dataset.document, strategy=strategy)
    profile = QueryProfile()
    result = engine.evaluate(path, profile=profile)
    return engine, result, profile


# -- profiles ----------------------------------------------------------------


def test_profile_records_operators_and_totals(dataset):
    _, result, profile = _profiled_run(dataset)
    assert result.profile is profile
    assert profile.path == PATH
    assert profile.strategy == "xr-stack"
    kinds = [op.kind for op in profile.operators]
    assert kinds[0] == "scan" and "join" in kinds
    join = next(op for op in profile.operators if op.kind == "join")
    assert join.rows_out == len(result)
    assert join.pairs == result.stats.pairs
    assert join.page_requests == join.page_hits + join.page_misses > 0
    assert profile.rows == len(result)
    assert profile.wall_seconds > 0
    assert profile.page_requests >= join.page_requests


def test_xr_stack_profile_reports_skip_probes(dataset):
    """The acceptance criterion: EXPLAIN ANALYZE on //employee//name over
    a generated document reports XR-stack skip counts > 0."""
    _, result, profile = _profiled_run(dataset)
    join = next(op for op in profile.operators if op.kind == "join")
    assert join.skip_probes > 0
    assert join.ancestor_skips > 0
    assert join.elements_skipped >= 0
    assert result.stats.ancestor_skips == join.ancestor_skips


def test_profile_rides_on_the_runtime_context(dataset):
    engine = PathQueryEngine(dataset.document)
    profile = QueryProfile()
    result = engine.evaluate(PATH, runtime=QueryContext(profile=profile))
    assert result.profile is profile
    assert profile.operators


def test_logical_counters_are_deterministic(dataset):
    """Two fresh engines over the same dataset and query must agree on
    every logical per-operator counter (hits + misses included)."""
    profiles = []
    for _ in range(2):
        _, _, profile = _profiled_run(dataset)
        profiles.append([
            (op.name, op.input_a, op.input_d, op.rows_out, op.pairs,
             op.elements_scanned, op.page_hits, op.page_misses,
             op.stab_pages, op.ancestor_skips, op.descendant_skips)
            for op in profile.operators
        ])
    assert profiles[0] == profiles[1]


def test_profile_to_dict_round_trips_through_json(dataset):
    _, _, profile = _profiled_run(dataset)
    decoded = json.loads(json.dumps(profile.to_dict()))
    assert decoded["path"] == PATH
    assert decoded["rows"] == profile.rows
    assert len(decoded["operators"]) == len(profile.operators)
    assert decoded["pages_by_index"]


# -- EXPLAIN ANALYZE ---------------------------------------------------------


def test_explain_without_analyze_is_unchanged_and_runs_no_join(dataset):
    engine = PathQueryEngine(dataset.document)
    plan = engine.explain(PATH)
    assert "plan for %s" % PATH in plan
    assert "profile for" not in plan


def test_explain_analyze_appends_actuals_with_estimates(dataset):
    engine = PathQueryEngine(dataset.document)
    text = engine.explain(PATH, analyze=True)
    plan, _, actuals = text.partition("\n\n")
    assert plan == engine.explain(PATH)  # the plan half is byte-identical
    assert actuals.startswith("profile for %s" % PATH)
    assert "est ~" in actuals            # estimated-vs-actual side by side
    assert "skip probes" in actuals      # XR-stack skips surfaced


# -- tracing through the engine ----------------------------------------------


def test_engine_tracing_emits_causal_chain(dataset):
    obs = Observability(tracer=Tracer(capacity=1 << 16, enabled=True))
    engine = PathQueryEngine(dataset.document, observability=obs)
    engine.evaluate(PATH)
    assert obs.tracer.dropped == 0
    records = obs.tracer.records()
    kinds = {record["kind"] for record in records}
    assert {"query", "plan", "operator", "page-fetch"} <= kinds
    assert validate_jsonl(obs.tracer.export_jsonl()) == []


def test_disabled_observability_records_nothing(dataset):
    obs = Observability()  # tracer disabled by default
    engine = PathQueryEngine(dataset.document, observability=obs)
    engine.evaluate(PATH)
    assert len(obs.tracer) == 0
    # ... but the metrics still count the query.
    assert obs.snapshot()["repro_queries_total"] == 1


# -- the database surface ----------------------------------------------------


def _tiny_db():
    db = XmlDatabase.create()
    db.add_document(
        "<dept><emp><name>a</name></emp><emp><name>b</name></emp></dept>")
    return db

def test_database_stats_covers_every_subsystem():
    with _tiny_db() as db:
        db.query("//emp//name")
        db.scrub()
        stats = db.stats()
        assert set(stats) == {"buffer", "indexes", "admission", "recovery",
                              "replication", "retention", "disk_full",
                              "scrub", "queries"}
        assert stats["buffer"]["requests"] == (stats["buffer"]["hits"]
                                               + stats["buffer"]["misses"])
        assert stats["indexes"]["creations"] == 3
        assert stats["admission"] is None    # none attached
        assert stats["recovery"] is None     # in-memory database
        assert stats["replication"] is None  # no replica attached
        assert stats["retention"] is None    # no retention manager attached
        assert stats["disk_full"]["degraded"] is False
        assert stats["scrub"]["entries_checked"] > 0
        assert stats["queries"]["total"] == 1
        assert stats["queries"]["rows"] == 2


#: Every metric a fresh database exposes: only the ones with a reader
#: (docs/OBSERVABILITY.md's reader table); db.stats() serves the rest.
DATABASE_METRICS = [
    "repro_buffer_hits", "repro_disk_full_degraded",
    "repro_disk_full_recoveries", "repro_index_handle_hits",
    "repro_journal_torn_groups", "repro_queries_total",
    "repro_query_errors_total", "repro_query_pages",
    "repro_query_rows_total", "repro_query_seconds",
    "repro_sessions_active", "repro_slow_queries_total",
    "repro_snapshot_lag",
]


def test_database_metrics_and_prometheus_exposition():
    with _tiny_db() as db:
        db.query("//emp//name")
        snap = db.metrics()
        assert sorted(snap) == DATABASE_METRICS
        assert snap["repro_queries_total"] == 1
        assert snap["repro_query_seconds"]["count"] == 1
        assert snap["repro_query_pages"]["count"] == 1
        assert snap["repro_buffer_hits"] > 0  # collector-refreshed gauge
        text = db.metrics_text()
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_index_handle_hits" in text


def test_database_error_queries_are_counted():
    from repro.query.engine import QueryError

    with _tiny_db() as db:
        with pytest.raises(QueryError):
            db.query("//emp[@never]/name")  # entries lack node access
        assert db.metrics()["repro_query_errors_total"] == 1


def test_database_slow_query_log():
    with _tiny_db() as db:
        db.configure_observability(slow_query_seconds=0.0)  # log everything
        db.query("//emp//name")
        entries = db.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["path"] == "//emp//name"
        assert entry["rows"] == 2 and entry["error"] is None
        assert db.metrics()["repro_slow_queries_total"] == 1
        db.configure_observability(slow_query_seconds=None)
        db.query("//emp//name")
        assert len(db.slow_queries()) == 1  # threshold off: nothing added


def test_database_explain_analyze_and_profile_param():
    with _tiny_db() as db:
        text = db.explain("//emp//name", analyze=True)
        assert "profile for //emp//name" in text
        profile = QueryProfile()
        result = db.query("//emp//name", profile=profile)
        assert result.profile is profile and profile.operators


def test_database_tracing_toggle():
    with _tiny_db() as db:
        db.query("//emp//name")
        assert len(db.observability.tracer) == 0
        db.configure_observability(trace=True)
        db.query("//emp//name")
        assert len(db.observability.tracer) > 0
        db.configure_observability(trace=False)


# -- CLI ---------------------------------------------------------------------


def test_cli_profile_and_trace_out(tmp_path, capsys):
    from repro.query.__main__ import main

    trace_file = tmp_path / "trace.jsonl"
    code = main([PATH, "--generate", "2000", "--profile",
                 "--trace-out", str(trace_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "profile for %s" % PATH in out
    assert "skip probes" in out
    assert validate_jsonl(trace_file.read_text()) == []

