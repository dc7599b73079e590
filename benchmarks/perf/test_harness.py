"""Checks of the benchmark harness itself.  Not part of the tier-1 run:

    PYTHONPATH=src python3 -m pytest benchmarks/perf/test_harness.py -q

The smoke-sized runs (tiny inputs, one epoch of two short blocks) finish
in well under 20 s together.
"""

import json
import os
import re
import subprocess
import sys
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import harness  # noqa: E402
import noise  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)
WORKLOAD_NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


# -- arithmetic --------------------------------------------------------------


def test_quantile_is_nearest_rank():
    values = list(range(1, 11))
    assert harness.quantile(values, 0.5) == 5
    assert harness.quantile(values, 0.9) == 9
    assert harness.quantile(values, 1.0) == 10
    assert harness.quantile([7], 0.9) == 7
    sample = list(range(400))
    p90 = harness.quantile(sample, 0.90)
    assert sum(1 for value in sample if value > p90) == 40
    with pytest.raises(ValueError):
        harness.quantile([], 0.5)


def test_speed_factor_and_round_windows():
    ref = calibrate.CALIB_REF_MS
    assert calibrate.speed_factor([ref, ref, ref]) == 1.0
    assert calibrate.speed_factor([2 * ref] * 4) == 0.5
    # Five slices bracket four rounds; each round takes the median of
    # the (up to) four slices nearest to it.
    slices = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    factors = harness.round_factors(slices)
    assert len(factors) == 4
    assert factors[0] == pytest.approx(1.0)        # slices 0..2 -> median ref
    assert factors[1] == pytest.approx(1 / 1.5)    # slices 0..3
    assert factors[3] == pytest.approx(0.5)        # slices 2..4


def test_block_normalises_latencies_and_walls():
    ref = calibrate.CALIB_REF_MS
    rounds = [([10.0, 12.0], 0.012), ([20.0], 0.020)]
    block = harness.Block(False, rounds, [2 * ref, 2 * ref, 2 * ref], 0)
    assert block.raw_ms == [10.0, 12.0, 20.0]
    assert block.normalised_ms == pytest.approx([5.0, 6.0, 10.0])
    assert block.wall_s == pytest.approx(0.032)
    assert block.normalised_wall_s == pytest.approx(0.016)
    assert block.factor == pytest.approx(0.5)


def test_noise_arithmetic():
    assert noise.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert noise.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    summary = noise.summarise([10.0, 11.0, 12.0, 13.0, 14.0])
    assert summary["median"] == 12.0
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 12.0)


# -- spans -------------------------------------------------------------------


def _span(sid, name, parent, thread, start, end):
    return (sid, name, parent, thread, start, end, 0)


def test_self_times_of_nested_and_cross_thread_spans_sum_to_wall():
    spans = [
        # client thread 1: unit -> server.query; worker thread 2 runs the
        # session query (and a fetch under it) inside the server span.
        _span(4, "buffer.fetch_hit", 3, 2, 0.030, 0.040),
        _span(3, "core.session_query", 2, 2, 0.020, 0.070),
        _span(2, "server.query", 1, 1, 0.010, 0.080),
        _span(5, "query.parse", 1, 1, 0.085, 0.090),
        _span(1, "unit", None, 1, 0.000, 0.100),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(0.100 - 0.070 - 0.005)
    assert own[2] == pytest.approx(0.070 - 0.050)   # queue + hand-off
    assert own[3] == pytest.approx(0.050 - 0.010)
    assert own[4] == pytest.approx(0.010)
    assert sum(own.values()) == pytest.approx(0.100)
    totals = tracing.Totals()
    totals.fold(spans)
    assert sum(totals.self_seconds.values()) == pytest.approx(
        totals.seconds["unit"])
    assert totals.layer_self_seconds("server") == pytest.approx(0.020)
    assert totals.mean_us("buffer.fetch_hit") == pytest.approx(10000.0)


def test_child_is_clipped_to_its_parent():
    spans = [_span(2, "core.session_query", 1, 2, 0.009, 0.050),
             _span(1, "server.query", None, 1, 0.010, 0.060)]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(0.010)
    assert min(own.values()) >= 0.0


def test_totals_add_scales_times_not_counts():
    block = tracing.Totals()
    block.fold([_span(1, "unit", None, 1, 0.0, 0.2)])
    run = tracing.Totals()
    run.add(block, 0.5)
    run.add(block, 0.5)
    assert run.calls["unit"] == 2
    assert run.seconds["unit"] == pytest.approx(0.2)


def test_proxies_install_and_uninstall_cleanly():
    from repro.joins.registry import get_algorithm
    from repro.storage.buffer import BufferPool
    from repro.storage.pages import Page

    before = (BufferPool.__dict__["fetch"], Page.__dict__["decode"],
              get_algorithm("xr-stack").runner)
    installation = tracing.Installation(tracing.Tracer()).install()
    assert BufferPool.__dict__["fetch"] is not before[0]
    installation.uninstall()
    after = (BufferPool.__dict__["fetch"], Page.__dict__["decode"],
             get_algorithm("xr-stack").runner)
    assert after == before


def test_every_span_name_has_a_layer_with_a_self_time_metric():
    declared = {entry["name"] for entry in CONTRACT["per_layer"]}
    for layer in set(tracing.LAYERS.values()):
        assert layer + ".self_ms_per_unit" in declared


# -- the oracle --------------------------------------------------------------


def test_sweep_oracle_agrees_with_nested_loop_join():
    from repro.joins import nested_loop_join

    rng = Random(5)
    for seed in range(3):
        workload = workloads.JoinDense(smoke=True)
        workload.setup(workloads.JoinDense.generate(seed, smoke=True), None)
        try:
            ancestors = rng.sample(workload.ancestors, 60)
            descendants = rng.sample(workload.descendants, 80)
            ancestors.sort(key=lambda entry: entry.start)
            descendants.sort(key=lambda entry: entry.start)
            assert workloads.containment_pairs(ancestors, descendants) == \
                len(nested_loop_join(ancestors, descendants))
            assert workloads.containment_pairs(
                workload.ancestors, workload.descendants) == \
                len(nested_loop_join(workload.ancestors,
                                     workload.descendants))
        finally:
            workload.teardown()


def test_generated_documents_have_the_exact_size():
    from repro.xmldata.dtd import AUCTION_DTD

    documents = workloads.generate_documents(
        AUCTION_DTD, workloads.AUCTION_CONFIG, 3, 4, 50)
    assert [document.element_count() for document in documents] == [50] * 4
    for document in documents:
        document.validate()


# -- smoke runs --------------------------------------------------------------


def _smoke(name, seed, trace):
    return harness.Run(name, seed, 0, trace=trace, smoke=True).run()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_exact_counters_repeat_for_a_seed_and_move_with_the_seed(name):
    first = _smoke(name, 1, True)
    again = _smoke(name, 1, True)
    other = _smoke(name, 2, True)
    assert first.failed == again.failed == other.failed == 0
    assert first.trace.exact == again.trace.exact
    assert first.trace.exact != other.trace.exact
    layers = first.per_layer()
    assert layers["bench.self_time_coverage"] == pytest.approx(1.0,
                                                               abs=0.02)
    assert set(layers) == {entry["name"]
                           for entry in CONTRACT["per_layer"]}
    assert not [entry.name for entry in os.scandir(harness.OUT_DIR)
                if entry.is_dir()], "a set-up's directory was left behind"


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_contract(trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "join_dense", "--seed", "1", "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in declared}
    for name, metric in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert isinstance(metric["value"], (int, float))


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [entry["name"] for entry in
             CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": entry["bound"]}
               for entry in CONTRACT["end_to_end"])
    for entry in CONTRACT["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert len(CONTRACT["per_layer"]) <= 128


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    lone = tmp_path / "benchmarks" / "perf"
    lone.mkdir(parents=True)
    for entry in os.listdir(HERE):
        source = os.path.join(HERE, entry)
        if os.path.isfile(source):
            (lone / entry).write_bytes(open(source, "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    completed = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "join_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert completed.returncode != 0
    assert completed.stdout == ""
