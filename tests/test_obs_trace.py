"""Tracer behaviour: nesting, ring wraparound, JSONL schema, no-op cost."""

import io
import json

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Tracer,
)
from repro.obs.validate import validate_jsonl


def test_span_records_begin_and_end_with_duration():
    tracer = Tracer()
    with tracer.span("query", path="//a//b"):
        pass
    records = tracer.records()
    assert [r["phase"] for r in records] == ["begin", "end"]
    begin, end = records
    assert begin["kind"] == end["kind"] == "query"
    assert begin["span"] == end["span"]
    assert end["dur"] >= 0
    assert begin["fields"]["path"] == "//a//b"
    assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)


def test_nested_spans_carry_parent_ids():
    tracer = Tracer()
    with tracer.span("query") as outer:
        with tracer.span("operator") as inner:
            tracer.event("page-fetch", page=3, hit=True)
    records = tracer.records()
    inner_begin = next(r for r in records
                       if r["kind"] == "operator" and r["phase"] == "begin")
    assert inner_begin["parent"] == outer.span_id
    event = next(r for r in records if r["phase"] == "event")
    assert event["parent"] == inner.span_id
    # After both exits the stack is empty: a fresh span has no parent.
    with tracer.span("query") as fresh:
        assert fresh.parent_id is None


def test_note_fields_ride_the_end_record():
    tracer = Tracer()
    with tracer.span("operator") as span:
        span.note(rows=42)
    end = tracer.records()[-1]
    assert end["fields"]["rows"] == 42


def test_ring_wraparound_keeps_newest_and_counts_dropped():
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.event("tick", n=index)
    assert len(tracer) == 4
    assert tracer.dropped == 6
    assert tracer.emitted == 10
    kept = [r["fields"]["n"] for r in tracer.records()]
    assert kept == [6, 7, 8, 9]  # oldest-first, newest survive


def test_clear_resets_ring_and_counters():
    tracer = Tracer(capacity=2)
    for _ in range(5):
        tracer.event("tick")
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0 and tracer.emitted == 0


def test_disabled_tracer_is_a_no_op_sharing_the_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("query", path="//a")
    assert span is NULL_SPAN
    assert tracer.span("another") is span  # one shared object, no allocs
    with span:
        span.note(ignored=True)
        tracer.event("page-fetch", page=1)
    assert len(tracer) == 0 and tracer.emitted == 0


def test_enable_disable_toggle():
    tracer = Tracer(enabled=False)
    tracer.event("lost")
    tracer.enable()
    tracer.event("kept")
    tracer.disable()
    tracer.event("lost-again")
    assert [r["kind"] for r in tracer.records()] == ["kept"]


def test_exception_inside_span_is_recorded_and_reraised():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("operator"):
            raise ValueError("boom")
    end = tracer.records()[-1]
    assert end["phase"] == "end"
    assert end["fields"]["error"] == "ValueError"


def test_jsonl_export_round_trips_through_the_validator():
    tracer = Tracer()
    with tracer.span("query", path="//a//b"):
        tracer.event("plan", strategy="xr-stack", steps=2)
        with tracer.span("operator", name="descendant-join //b"):
            tracer.event("page-fetch", page=0, hit=False)
    text = tracer.export_jsonl()
    assert validate_jsonl(text) == []
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert len(lines) == len(tracer) + 1  # records + meta header
    assert lines[0]["kind"] == "trace-meta"
    assert lines[0]["capacity"] == tracer.capacity
    assert lines[0]["dropped"] == 0


def test_jsonl_export_to_file_object():
    tracer = Tracer()
    tracer.event("tick")
    buffer = io.StringIO()
    assert tracer.export_jsonl(buffer) is None
    assert validate_jsonl(buffer.getvalue()) == []


def test_jsonl_export_to_path(tmp_path):
    tracer = Tracer()
    tracer.event("tick")
    target = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(target))
    assert validate_jsonl(target.read_text()) == []


def test_wrapped_ring_still_validates():
    """Overwritten begins must not fail pairing: the validator relaxes
    span pairing when the meta header reports drops."""
    tracer = Tracer(capacity=3)
    for index in range(5):
        with tracer.span("operator", n=index):
            pass
    assert tracer.dropped > 0
    assert validate_jsonl(tracer.export_jsonl()) == []


def test_validator_rejects_garbage():
    assert validate_jsonl("not json\n")  # non-empty problem list
    for version in (999, 1):
        bad_version = json.dumps({"v": version, "kind": "trace-meta",
                                  "phase": "meta", "capacity": 1,
                                  "emitted": 0, "dropped": 0}) + "\n"
        assert any("schema version" in problem
                   for problem in validate_jsonl(bad_version))


def test_timestamps_are_monotonic_in_export_order():
    tracer = Tracer()
    for _ in range(50):
        tracer.event("tick")
    stamps = [r["ts"] for r in tracer.records()]
    assert stamps == sorted(stamps)


def test_capacity_validation():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
