"""Run one workload: epochs of set-up + blocks of timed rounds.

Shape of a run (why it repeats — see README "Noise design"):

* an **epoch** is ``SETUPS_PER_EPOCH`` timed set-ups (the last one kept),
  the oracle, an untimed warm-up and ``EPOCH_BLOCKS`` blocks;
* a **block** is ``BLOCK_ROUNDS`` rounds; in a **round** every client
  runs one unit (concurrently when there are two), and one calibration
  slice runs before the first round and after every round;
* every latency is multiplied by ``CALIB_REF_MS`` over the median of the
  four slices nearest to its round;
* epochs repeat until ``--seconds`` have passed, and only whole epochs
  count, so every run pools the same state trajectory whatever the
  machine's speed (``cluster_rw`` is not stationary inside an epoch).

With ``trace=True`` blocks alternate traced / untraced (one client), the
first traced block of the run is the fixed window the *exact* counters
are read over, and the result holds the per-layer metrics.
"""

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

import calibrate
import tracing
from workloads import JOIN_ALGORITHMS, WORKLOADS

BLOCK_ROUNDS = 20
EPOCH_BLOCKS = 6
SETUPS_PER_EPOCH = 3
#: Slices on either side of a set-up (it is timed once, not per round).
SETUP_SLICES = 3
#: Units of the first traced block whose raw spans go to the trace file.
TRACE_DUMP_UNITS = 5

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least ``q`` of
    the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def round_factors(slices_ms):
    """Speed factor of each round of a block from its ``rounds + 1``
    slices: round ``i`` lies between slices ``i`` and ``i + 1`` and takes
    the median of those two and their two outer neighbours."""
    return [calibrate.speed_factor(slices_ms[max(0, index - 1):index + 3])
            for index in range(len(slices_ms) - 1)]


class Block:
    """One block's readings.  ``rounds`` holds, per round, the unit
    latencies in ms and the round's wall seconds; ``slices_ms`` has one
    more entry than ``rounds``."""

    def __init__(self, traced, rounds, slices_ms, failed):
        self.traced = traced
        self.rounds = rounds
        self.slices_ms = slices_ms
        self.failed = failed
        self.factors = round_factors(slices_ms)
        #: One factor for the whole block: scales a traced block's totals.
        self.factor = calibrate.speed_factor(slices_ms)

    @property
    def raw_ms(self):
        return [ms for latencies, _wall in self.rounds for ms in latencies]

    @property
    def normalised_ms(self):
        return [ms * factor
                for (latencies, _wall), factor in zip(self.rounds,
                                                      self.factors)
                for ms in latencies]

    @property
    def wall_s(self):
        return sum(wall for _latencies, wall in self.rounds)

    @property
    def normalised_wall_s(self):
        return sum(wall * factor
                   for (_latencies, wall), factor in zip(self.rounds,
                                                         self.factors))


def _timed_unit(workload, sink):
    """Run one unit; append ``(latency ms, ok)`` to ``sink``.  A unit
    that raises is a counted failure, not a crash."""
    started = time.perf_counter()
    try:
        ok = workload.unit()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    sink.append(((time.perf_counter() - started) * 1000.0, ok))


def _round(workload, clients):
    """Every client runs one unit; returns ``(results, wall seconds)``."""
    results = []
    started = time.perf_counter()
    if clients == 1:
        _timed_unit(workload, results)
    else:
        threads = [threading.Thread(target=_timed_unit,
                                    args=(workload, results))
                   for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results, time.perf_counter() - started


class Trace:
    """What the traced run accumulates across blocks and epochs."""

    def __init__(self, dump_path):
        self.tracer = tracing.Tracer()
        self.installation = tracing.Installation(self.tracer)
        self.units = tracing.Totals()
        self.setup = tracing.Totals()
        self.dump_path = dump_path
        self.dumped = 0
        self.exact = None
        self.traced_units = 0

    def round(self, workload, totals):
        """One traced unit, its spans folded into ``totals``."""
        tracer = self.tracer
        results = []
        token = tracer.begin_unit()
        _timed_unit(workload, results)
        tracer.end_unit(token)
        spans = tracer.drain()
        totals.fold(spans)
        if self.dumped < TRACE_DUMP_UNITS:
            with open(self.dump_path, "a") as handle:
                tracing.write_spans(handle, spans, self.dumped)
            self.dumped += 1
        wall = spans[-1][5] - spans[-1][4]  # the unit's root span
        return [(wall * 1000.0, results[0][1])], wall


def _exact_window(workload, before, after, totals, evictions, units):
    """The *exact* per-layer values of one fixed window of ``units``."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    calls = totals.calls

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    requests = calls["buffer.fetch_hit"] + calls["buffer.fetch_miss"]
    commits = delta.get("disk.commits", 0)
    page_bytes = (delta.get("disk.page_writes", 0)
                  * getattr(workload, "page_size", 0))
    exact = {
        "pages.decode_calls_per_unit": calls["pages.decode"] / units,
        "buffer.requests_per_unit": requests / units,
        "buffer.misses_per_unit": calls["buffer.fetch_miss"] / units,
        "buffer.evictions_per_unit": evictions / units,
        "disk.commits_per_unit": commits / units,
        "disk.page_writes_per_commit":
            ratio(delta.get("disk.page_writes", 0), commits),
        "disk.bytes_written_per_user_byte":
            ratio(page_bytes, delta.get("disk.user_bytes", 0)),
        "disk.segment_bytes_per_commit":
            ratio(delta.get("disk.segment_bytes", 0), commits),
        "replication.segments_per_unit":
            delta.get("replication.segments", 0) / units,
        "replication.lag_after_tick": after.get("replication.max_lag", 0),
        "xrtree.find_ancestors_calls_per_unit":
            calls["xrtree.find_ancestors"] / units,
        "xrtree.stab_pages_per_unit":
            delta.get("xrtree.stab_pages", 0) / units,
        "query.elements_scanned_per_row":
            ratio(delta.get("query.elements_scanned", 0),
                  delta.get("query.rows", 0)),
        "server.session_refreshes":
            delta.get("server.session_refreshes", 0),
        "server.rejected": delta.get("server.rejected", 0),
        "server.queue_high_water": after.get("server.queue_high_water", 0),
        "cluster.standby_read_share":
            ratio(delta.get("cluster.standby_reads", 0),
                  delta.get("cluster.reads", 0)),
    }
    # Every unit of a join workload is the same cold join, so the last
    # unit's JoinOutcome is every unit's.
    outcomes = getattr(workload, "last_outcomes", {})
    for algorithm in JOIN_ALGORITHMS:
        stem = tracing.JOIN_RUNNERS[algorithm]
        outcome = outcomes.get(algorithm)
        if outcome is None:
            scanned = page_requests = misses = skips = pairs = 0
        else:
            stats = outcome.stats
            scanned, pairs = stats.elements_scanned, stats.pairs
            page_requests = outcome.page_requests
            misses = outcome.page_misses
            skips = stats.ancestor_skips + stats.descendant_skips
        exact.update({stem + "_elements_scanned": scanned,
                      stem + "_page_requests": page_requests,
                      stem + "_page_misses": misses,
                      stem + "_skips": skips, stem + "_pairs": pairs})
    return exact


class Run:
    """One invocation: runs epochs, then derives the metrics."""

    def __init__(self, name, seed, seconds, trace=False, smoke=False):
        self.workload_class = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.block_rounds = 4 if smoke else BLOCK_ROUNDS
        self.epoch_blocks = 2 if smoke else EPOCH_BLOCKS
        self.clients = 1 if trace else self.workload_class.clients
        self.epochs = []        # per epoch, its list of Block
        self.setups_s = []      # normalised
        self.raw_setups_s = []
        self.slices_ms = []     # every calibration reading of the run
        self.stored = None
        self.inputs = None
        self.generate_s = None
        os.makedirs(OUT_DIR, exist_ok=True)
        self.trace = None
        if trace:
            dump = os.path.join(OUT_DIR, "trace-%s.jsonl" % name)
            if os.path.exists(dump):
                os.remove(dump)
            self.trace = Trace(dump)

    # -- measuring -----------------------------------------------------------

    def _slices(self, count=1):
        readings = [calibrate.slice_ms() for _ in range(count)]
        self.slices_ms.extend(readings)
        return readings

    def _bracketed(self, call):
        """``call()`` timed once between two groups of slices; returns
        its result, the raw seconds and the speed factor."""
        slices = self._slices(SETUP_SLICES)
        started = time.perf_counter()
        result = call()
        raw = time.perf_counter() - started
        return result, raw, calibrate.speed_factor(
            slices + self._slices(SETUP_SLICES))

    def run(self):
        # Inputs come from the seed once; every set-up of the run hands
        # the same inputs to the program, which never sees the seed.
        self.inputs, raw, factor = self._bracketed(
            lambda: self.workload_class.generate(self.seed, self.smoke))
        self.generate_s = raw * factor
        began = time.perf_counter()
        while True:
            self._epoch()
            if self.smoke or time.perf_counter() - began >= self.seconds:
                break
        return self

    def _timed_setup(self, workdir):
        """One set-up, timed between slices; returns the workload."""
        workload = self.workload_class(smoke=self.smoke)
        try:
            _, raw, factor = self._bracketed(
                lambda: workload.setup(self.inputs, workdir))
        except BaseException:
            workload.teardown()
            raise
        self.raw_setups_s.append(raw)
        self.setups_s.append(raw * factor)
        if self.trace is not None:
            self.trace.setup.fold(self.trace.tracer.drain(), factor)
        return workload

    def _epoch(self):
        trace = self.trace
        if trace is not None:
            trace.installation.install()
        try:
            for attempt in range(SETUPS_PER_EPOCH):
                # All file-backed state of one set-up lives here and goes
                # with it, on success and on failure.
                workdir = tempfile.mkdtemp(prefix=self.name + "-",
                                           dir=OUT_DIR)
                workload = None
                try:
                    workload = self._timed_setup(workdir)
                    if attempt == SETUPS_PER_EPOCH - 1:
                        self._timed_blocks(workload)
                finally:
                    gc.unfreeze()
                    if workload is not None:
                        workload.teardown()
                    shutil.rmtree(workdir, ignore_errors=True)
        finally:
            if trace is not None:
                trace.installation.uninstall()

    def _timed_blocks(self, workload):
        trace = self.trace
        workload.prepare_oracle()
        workload.warmup()
        self.stored = workload.stored()
        if trace is not None:
            # Set-up ran under the proxies; blocks put their own in.
            trace.installation.uninstall()
            trace.tracer.drain()  # oracle and warm-up spans are not kept
        # Set-up garbage is collected once and the survivors frozen, so a
        # full collection inside a timed unit only walks the unit's own
        # allocations; the collector itself stays on.
        gc.collect()
        gc.freeze()
        blocks = []
        for index in range(self.epoch_blocks):
            if trace is not None and index % 2 == 0:
                blocks.append(self._traced_block(workload))
            else:
                blocks.append(self._block(
                    False, lambda: _round(workload, self.clients)))
        self.epochs.append(blocks)

    def _block(self, traced, run_round):
        slices = self._slices()
        rounds, failed = [], 0
        for _ in range(self.block_rounds):
            results, wall = run_round()
            rounds.append(([ms for ms, _ok in results], wall))
            failed += sum(not ok for _ms, ok in results)
            slices.extend(self._slices())
        return Block(traced, rounds, slices, failed)

    def _traced_block(self, workload):
        trace = self.trace
        totals = tracing.Totals()
        counters = workload.counters()
        evictions = trace.tracer.evictions
        trace.installation.install()
        try:
            block = self._block(True,
                                lambda: trace.round(workload, totals))
        finally:
            trace.installation.uninstall()
        if trace.exact is None:
            trace.exact = _exact_window(
                workload, counters, workload.counters(), totals,
                trace.tracer.evictions - evictions, self.block_rounds)
        trace.units.add(totals, block.factor)
        trace.traced_units += self.block_rounds
        return block

    # -- deriving ------------------------------------------------------------

    def _blocks(self, traced):
        return [block for epoch in self.epochs for block in epoch
                if block.traced == traced]

    @property
    def attempted(self):
        return sum(len(block.raw_ms) for epoch in self.epochs
                   for block in epoch)

    @property
    def failed(self):
        return sum(block.failed for epoch in self.epochs for block in epoch)

    def drift_ratio(self, traced):
        """Median latency of each epoch's last block of a kind over that
        of its first, pooled over epochs."""
        first, last = [], []
        for epoch in self.epochs:
            kind = [block for block in epoch if block.traced == traced]
            if len(kind) >= 2:
                first.extend(kind[0].normalised_ms)
                last.extend(kind[-1].normalised_ms)
        if not first:
            return 1.0
        return statistics.median(last) / statistics.median(first)

    def calib_spread(self):
        """How far the machine's speed moved during the run: p95 over p05
        of every calibration slice."""
        return (quantile(self.slices_ms, 0.95)
                / quantile(self.slices_ms, 0.05))

    def end_to_end(self):
        blocks = self._blocks(traced=False)
        pooled = [ms for block in blocks for ms in block.normalised_ms]
        wall = sum(block.normalised_wall_s for block in blocks)
        stored_bytes, stored_elements = self.stored
        return {
            "setup_s": statistics.median(self.setups_s),
            "unit_p50_ms": statistics.median(pooled),
            "unit_p90_ms": quantile(pooled, 0.90),
            "units_per_s": len(pooled) / wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bytes_per_element": stored_bytes / stored_elements,
        }

    def raw_summary(self):
        """Raw (un-normalised) readings, kept beside the metrics."""
        blocks = self._blocks(traced=False)
        raw = [ms for block in blocks for ms in block.raw_ms]
        return {
            "raw_unit_p50_ms": statistics.median(raw),
            "raw_unit_p90_ms": quantile(raw, 0.90),
            "raw_units_per_s": len(raw) / sum(b.wall_s for b in blocks),
            "raw_setup_s": statistics.median(self.raw_setups_s),
            "calib_ms": statistics.median(self.slices_ms),
            "calib_spread": self.calib_spread(),
            "drift_ratio": self.drift_ratio(traced=False),
            "epochs": len(self.epochs),
            "samples": len(raw),
        }

    def per_layer(self):
        trace = self.trace
        units, setup = trace.units, trace.setup
        traced_units = trace.traced_units
        traced = [ms for block in self._blocks(True)
                  for ms in block.normalised_ms]
        untraced = [ms for block in self._blocks(False)
                    for ms in block.normalised_ms]
        requests = (units.calls["buffer.fetch_hit"]
                    + units.calls["buffer.fetch_miss"])

        def unit_or_setup(name):
            """Units' totals when units run ``name``, else set-up's
            (``add_document``, ``flush``, ``sync`` and XML parsing happen
            only in set-up on ``query_serve``)."""
            return units if units.calls[name] else setup

        def setup_per_element_us(name):
            weight = setup.weight[name]
            return setup.seconds[name] / weight * 1e6 if weight else 0.0

        parses = unit_or_setup("xmldata.parse")
        parsed = parses.calls["xmldata.parse"] * (
            self.workload_class.document_elements or 0)
        values = dict(trace.exact)
        for algorithm in JOIN_ALGORITHMS:
            stem = tracing.JOIN_RUNNERS[algorithm]
            pairs = values.pop(stem + "_pairs")
            mean_ms = units.mean_us(stem) / 1000.0
            values[stem + "_ms"] = mean_ms
            # Pairs are known where a unit is one join per algorithm;
            # the query workloads still show the runners' time.
            values[stem + "_pairs_per_s"] = \
                pairs / (mean_ms / 1000.0) if pairs and mean_ms else 0.0
        for layer in sorted(set(tracing.LAYERS.values())):
            values[layer + ".self_ms_per_unit"] = \
                units.layer_self_seconds(layer) / traced_units * 1000.0
        values.update({
            "pages.decode_us_per_call": units.mean_us("pages.decode"),
            "buffer.hit_ratio": (units.calls["buffer.fetch_hit"] / requests
                                 if requests else 0.0),
            "buffer.fetch_hit_us": units.mean_us("buffer.fetch_hit"),
            "buffer.fetch_miss_us": units.mean_us("buffer.fetch_miss"),
            "buffer.latch_waits": sum(pool.latch_waits
                                      for pool in trace.tracer.pools),
            "disk.sync_ms":
                unit_or_setup("disk.sync").mean_us("disk.sync") / 1000.0,
            "replication.catch_up_ms":
                units.mean_us("replication.catch_up") / 1000.0,
            "xrtree.find_ancestors_us":
                units.mean_us("xrtree.find_ancestors"),
            "xrtree.find_descendants_us":
                units.mean_us("xrtree.find_descendants"),
            "xrtree.seek_us": units.mean_us("xrtree.seek"),
            "xrtree.insert_us": units.mean_us("xrtree.insert"),
            "xrtree.delete_us": units.mean_us("xrtree.delete"),
            "xrtree.bulk_load_us_per_element":
                setup_per_element_us("xrtree.bulk_load"),
            "bptree.seek_us": units.mean_us("bptree.seek"),
            "bptree.bulk_load_us_per_element":
                setup_per_element_us("bptree.bulk_load"),
            "query.parse_us": units.mean_us("query.parse"),
            "query.evaluate_ms": units.mean_us("query.evaluate") / 1000.0,
            "core.session_open_us": units.mean_us("core.session_open"),
            "core.session_query_self_us":
                units.mean_self_us("core.session_query"),
            "core.add_document_ms": unit_or_setup(
                "core.add_document").mean_us("core.add_document") / 1000.0,
            "core.remove_document_ms":
                units.mean_us("core.remove_document") / 1000.0,
            "core.flush_ms":
                unit_or_setup("core.flush").mean_us("core.flush") / 1000.0,
            "server.query_self_us": units.mean_self_us("server.query"),
            "cluster.write_ms": units.mean_us("cluster.write") / 1000.0,
            "cluster.tick_ms": units.mean_us("cluster.tick") / 1000.0,
            "cluster.read_ms": units.mean_us("cluster.read") / 1000.0,
            "cluster.read_self_us": units.mean_self_us("cluster.read"),
            "xmldata.parse_us_per_element":
                (parses.seconds["xmldata.parse"] / parsed * 1e6
                 if parsed else 0.0),
            "xmldata.generate_s": self.generate_s,
            "bench.self_time_coverage":
                sum(units.self_seconds.values()) / units.seconds["unit"],
            "bench.calib_ms": statistics.median(self.slices_ms),
            "bench.calib_spread": self.calib_spread(),
            "bench.drift_ratio": self.drift_ratio(traced=True),
            "bench.trace_overhead_ratio":
                statistics.median(traced) / statistics.median(untraced),
            "bench.samples": len(traced),
        })
        return values

    def environment(self):
        return {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "filesystem": filesystem_type(OUT_DIR),
            "calib_ref_ms": calibrate.CALIB_REF_MS,
            "clients": self.clients,
            "block_rounds": self.block_rounds,
            "epoch_blocks": self.epoch_blocks,
        }


def filesystem_type(path):
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def write_report(run, metrics):
    """The informational JSON beside the result line (raw readings,
    environment); the driver never reads it."""
    report = {"environment": run.environment(),
              "metrics": metrics,
              "raw": run.raw_summary(),
              "attempted": run.attempted,
              "failed": run.failed}
    path = os.path.join(OUT_DIR, "%s-trace%d.json"
                        % (run.name, run.trace is not None))
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return report
