"""The cluster observability plane, end to end.

Four subsystems under one roof: the metric-hygiene lint (every metric a
fully-wired cluster exports is well-named, documented, parseable, owned
by at most one collector, and — like every span and event kind emitted
under ``src/`` — has a row in docs/OBSERVABILITY.md's reader table,
which names nothing else), trace schema v2 + cross-node trace
joining (a failover's fence/elect/promote/rebuild spans from different
nodes share one trace id through the flight bundle), the per-node HTTP
ops endpoints plus the aggregator that merges their expositions, and
the failover flight recorder whose bundles the postmortem tool renders.
"""

import json
import pathlib
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.database import XmlDatabase
from repro.obs import Observability
from repro.obs.aggregate import aggregate_expositions, scrape
from repro.obs.metrics import MetricsError, parse_exposition
from repro.obs.postmortem import load_bundle, merge_timeline, render
from repro.obs.trace import (
    Tracer,
    current_trace_id,
    new_trace_id,
    trace_context,
)
from repro.obs.validate import validate_jsonl

from tests.test_cluster_failover import make_cluster

METRIC_NAME = re.compile(r"^repro_[a-z0-9_]+$")

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: One row of the reader table: ``| `name` | type | reader |``.
READER_ROW = re.compile(
    r"^\| `([^`]+)` \| (counter|gauge|histogram|span|event) \| .+ \|$")
#: A ``tracer.span(...)`` / ``tracer.event(...)`` call; the kind is group 3
#: when it is a string literal.
EMIT_SITE = re.compile(r'tracer\.(span|event)\(\s*("([^"]*)")?')

XML = "<dept><employee><name>ada</name></employee></dept>"


def _small_cluster(tmp_path, **set_options):
    """A 2-standby ReplicaSet over local-dir shipping (no sockets)."""
    return make_cluster(tmp_path, standbys=2, **set_options)


def _reader_rows():
    """``{name: type}`` for every row of docs/OBSERVABILITY.md's table."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    return {match.group(1): match.group(2)
            for match in map(READER_ROW.match, text.splitlines())
            if match}


def _emit_sites():
    """``(file, "span"|"event", kind)`` for every emit call under
    ``src/repro`` outside the tracer's own module; ``kind`` is None when
    the call does not name its kind by a string literal."""
    sites = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.parts[-2:] == ("obs", "trace.py"):
            continue
        for match in EMIT_SITE.finditer(path.read_text(encoding="utf-8")):
            sites.append((path.name, match.group(1), match.group(3)))
    return sites


@pytest.fixture(scope="class")
def wired_cluster(tmp_path_factory):
    """A fully wired cluster: a ReplicaSet (per-node hubs, retention,
    client) whose primary has a scrubber and a replica
    attached, plus a SocketShipper and a SegmentServer on their own hub.
    Yields ``(replica_set, net_hub)``."""
    from repro.net import SegmentServer, SocketShipper
    from repro.storage.retention import RetentionPolicy

    replica_set, client, _disk, _standby_disks = _small_cluster(
        tmp_path_factory.mktemp("wired"),
        retention_policy=RetentionPolicy(pitr_window=2, checkpoint_every=3,
                                         max_standby_lag=4))
    db = replica_set.view.primary.database
    net_hub = Observability(node_id="net")
    server = SegmentServer(db.archive.directory, 512,
                           observability=net_hub).start()
    shipper = SocketShipper(server.address, page_size=512,
                            observability=net_hub)
    try:
        db.scrub()
        db.attach_replication(replica_set.view.standbys[0].replica)
        shipper.latest_sequence()
        client.write(lambda d: d.add_document(XML))
        client.query("//employee")
        replica_set.tick()
        yield replica_set, net_hub
    finally:
        shipper.close()
        server.stop()
        client.close()
        replica_set.close()


def _http_get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


# -- metric hygiene ------------------------------------------------------------


class TestMetricHygiene:
    def _lint(self, registry):
        registry.collect()
        for name in registry.names():
            instrument = registry.get(name)
            assert METRIC_NAME.match(name), (
                "metric %r violates the repro_[a-z0-9_]+ convention"
                % name)
            assert instrument.help, "metric %r has empty help" % name
        parsed = parse_exposition(registry.render_prometheus())
        assert parsed["samples"], "empty exposition"
        # Ownership must point at collectors that exist, one per metric
        # (dict shape already enforces one owner; just sanity-check it).
        for metric, owner in registry.collector_owners().items():
            assert isinstance(owner, str) and owner

    def test_fully_wired_cluster_registries_pass_the_lint(self,
                                                          wired_cluster):
        replica_set, _net_hub = wired_cluster
        for hub in replica_set._hubs.values():
            self._lint(hub.metrics)

    @staticmethod
    def _live_names(wired_cluster):
        """``{name: type}`` of every registered metric and every kind
        emitted under ``src/``."""
        replica_set, net_hub = wired_cluster
        live = {}
        for hub in list(replica_set._hubs.values()) + [net_hub]:
            for name in hub.metrics.names():
                live[name] = hub.metrics.get(name).kind
        for _file, method, kind in _emit_sites():
            live[kind] = method
        return live

    def test_every_metric_and_kind_has_a_reader_row(self, wired_cluster):
        non_literal = [(file, method) for file, method, kind
                       in _emit_sites() if kind is None]
        assert not non_literal, (
            "name the kind by a string literal, so the reader lint can "
            "see it: %r" % non_literal)
        rows = _reader_rows()
        unread = sorted("%s (%s)" % (name, kind) for name, kind
                        in self._live_names(wired_cluster).items()
                        if rows.get(name) != kind)
        assert not unread, (
            "no row of that type in docs/OBSERVABILITY.md's reader table "
            "— name a reader or delete it: %s" % ", ".join(unread))

    def test_every_reader_row_names_a_live_metric_or_kind(self,
                                                          wired_cluster):
        live = self._live_names(wired_cluster)
        stale = sorted("%s (%s)" % (name, kind) for name, kind
                       in _reader_rows().items() if live.get(name) != kind)
        assert not stale, (
            "reader table rows naming nothing registered or emitted: %s"
            % ", ".join(stale))

    def test_second_collector_cannot_steal_a_mirrored_metric(self,
                                                             tmp_path):
        db = XmlDatabase.create(str(tmp_path / "solo.db"), page_size=512,
                                buffer_pages=16)
        try:
            registry = db.observability.metrics
            with pytest.raises(MetricsError):
                registry.claim("repro_buffer_hits", "imposter")
        finally:
            db.close()


# -- trace schema v2 + propagation ---------------------------------------------


class TestTraceV2:
    def test_v2_export_carries_trace_node_and_attempt(self):
        tracer = Tracer(capacity=64)
        tracer.node_id = "node-x"
        with trace_context("cafe0123cafe0123", attempt=2):
            with tracer.span("outer"):
                tracer.event("tick")
        text = tracer.export_jsonl()
        problems = validate_jsonl(text)
        assert not problems, problems
        records = [json.loads(line) for line in text.splitlines()]
        meta = records[0]
        assert meta["v"] == 2
        assert meta["node"] == "node-x"
        assert meta["wall_epoch"] > 0
        spans = [r for r in records[1:]
                 if r.get("phase") in ("begin", "end")]
        assert spans and all(r["trace"] == "cafe0123cafe0123"
                             for r in spans)
        assert all(r["attempt"] == 2 for r in spans)
        assert all(r["node"] == "node-x" for r in spans)

    def test_remote_link_round_trips_through_the_validator(self):
        tracer = Tracer(capacity=32)
        tracer.node_id = "follower"
        link = {"trace": "beef", "span": 7, "node": "leader"}
        with trace_context("beef", link=link):
            with tracer.span("apply"):
                pass
        problems = validate_jsonl(tracer.export_jsonl())
        assert not problems, problems
        records = [json.loads(line)
                   for line in tracer.export_jsonl().splitlines()]
        linked = [r for r in records if r.get("link")]
        assert linked and linked[0]["link"]["node"] == "leader"

    def test_validator_rejects_bad_v2_fields(self):
        tracer = Tracer(capacity=16)
        with trace_context("feed"):
            with tracer.span("op"):
                pass
        lines = tracer.export_jsonl().splitlines()
        broken = json.loads(lines[1])
        broken["attempt"] = 0  # must be >= 1
        bad = "\n".join([lines[0], json.dumps(broken)] + lines[2:])
        problems = validate_jsonl(bad)
        assert problems
        assert any("attempt" in problem for problem in problems)

    def test_client_trace_joins_the_server_span(self, tmp_path):
        from repro.server import Server

        db = XmlDatabase.create(str(tmp_path / "served.db"),
                                page_size=512, buffer_pages=16)
        db.add_document(XML)
        db.flush()
        tracer = db.observability.tracer
        tracer.enable()
        try:
            with Server(db, workers=2) as server:
                trace_id = new_trace_id()
                with trace_context(trace_id):
                    server.query("//employee")
            records = [json.loads(line) for line in
                       tracer.export_jsonl().splitlines()[1:]]
            joined = [r for r in records
                      if r.get("trace") == trace_id
                      and r.get("kind") == "server-request"]
            assert joined, "server-request span did not join the trace"
        finally:
            db.close()

    def test_concurrent_emitters_export_validates(self):
        tracer = Tracer(capacity=256)
        tracer.node_id = "stress"
        barrier = threading.Barrier(8)

        def emitter(index):
            barrier.wait()
            with trace_context(new_trace_id()):
                for op in range(500):
                    if op % 5 == 0:
                        with tracer.span("work", thread=index):
                            pass
                    else:
                        tracer.event("tick", thread=index, op=op)

        threads = [threading.Thread(target=emitter, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        problems = validate_jsonl(tracer.export_jsonl())
        assert not problems, problems

    def test_trace_context_is_scoped_to_the_thread(self):
        assert current_trace_id() is None
        with trace_context("abc"):
            assert current_trace_id() == "abc"
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(current_trace_id()))
            thread.start()
            thread.join()
            assert seen == [None]  # no cross-thread leakage
        assert current_trace_id() is None


# -- ops endpoints + aggregation -----------------------------------------------


class TestOpsEndpoints:
    def test_database_ops_surface(self, tmp_path):
        db = XmlDatabase.create(str(tmp_path / "ops.db"), page_size=512,
                                buffer_pages=16)
        db.add_document(XML)
        db.flush()
        ops = db.serve_ops()
        try:
            status, text = _http_get(ops.url + "/metrics")
            assert status == 200
            assert parse_exposition(text)["samples"]
            status, text = _http_get(ops.url + "/healthz")
            assert status == 200
            health = json.loads(text)
            assert health["ok"] is True
            status, text = _http_get(ops.url + "/varz")
            assert status == 200
            varz = json.loads(text)
            assert "queries" in varz and "buffer" in varz
            assert "p99_seconds" in varz["queries"]
        finally:
            ops.stop()
            db.close()

    def test_unknown_route_is_404(self, tmp_path):
        db = XmlDatabase.create(str(tmp_path / "ops404.db"),
                                page_size=512, buffer_pages=16)
        ops = db.serve_ops()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _http_get(ops.url + "/nope")
            assert excinfo.value.code == 404
        finally:
            ops.stop()
            db.close()

    def test_replicaset_ops_and_aggregate_merge(self, tmp_path):
        replica_set, client, _disk, _standby_disks = _small_cluster(
            tmp_path)
        ops = replica_set.serve_ops()
        try:
            client.write(lambda db: db.add_document(XML))
            status, text = _http_get(ops.url + "/healthz")
            assert status == 200
            assert json.loads(text)["ok"] is True
            merged = aggregate_expositions([
                ("node-a", scrape(ops.url + "/metrics")),
                ("node-b", scrape(ops.url + "/metrics")),
            ])
            parsed = parse_exposition(merged)
            nodes = {labels.get("node")
                     for _name, labels, _value in parsed["samples"]}
            assert nodes == {"node-a", "node-b"}
            # HELP/TYPE appear once per family despite two sources.
            help_lines = [line for line in merged.splitlines()
                          if line.startswith("# HELP repro_queries_total ")]
            assert len(help_lines) == 1
        finally:
            ops.stop()
            replica_set.close()


class TestSocketTraceJoin:
    def test_shipper_context_joins_the_segment_server_trace(self,
                                                            tmp_path):
        from repro.net import SegmentServer, SocketShipper
        from repro.storage.journal import Archive

        archive_dir = str(tmp_path / "archive")
        archive = Archive(archive_dir, 512)
        archive.append(1, {1: b"x" * 512})

        server_hub = Observability(node_id="server-node")
        server_hub.tracer.enable()
        shipper_hub = Observability(node_id="client-node")
        shipper_hub.tracer.enable()
        server = SegmentServer(archive_dir, 512,
                               observability=server_hub).start()
        shipper = SocketShipper(server.address, page_size=512,
                                observability=shipper_hub)
        trace_id = new_trace_id()
        try:
            with trace_context(trace_id), \
                    shipper_hub.tracer.span("standby.catch-up"):
                assert shipper.latest_sequence() == 1
                assert shipper.fetch(1) is not None
        finally:
            shipper.close()
            server.stop()
        records = [json.loads(line) for line in
                   server_hub.tracer.export_jsonl().splitlines()[1:]]
        joined = [r for r in records if r.get("trace") == trace_id]
        assert joined, "server records did not join the shipper's trace"
        links = [r["link"] for r in joined if r.get("link")]
        assert links and links[0]["node"] == "client-node"
        assert all(r.get("node") == "server-node" for r in joined)

    def test_a_failed_first_request_keeps_the_trace_context(self,
                                                             tmp_path):
        """A fault before the shipper's first response must not cost the
        context on every later request."""
        from repro.net import (ChaosProxy, NetworkError, SegmentServer,
                               SocketShipper)
        from repro.storage.journal import Archive

        archive_dir = str(tmp_path / "archive")
        Archive(archive_dir, 512).append(1, {1: b"x" * 512})
        server_hub = Observability(node_id="server-node")
        server_hub.tracer.enable()
        shipper_hub = Observability(node_id="client-node")
        shipper_hub.tracer.enable()
        server = SegmentServer(archive_dir, 512,
                               observability=server_hub).start()
        proxy = ChaosProxy(server.address, seed=1).start()
        shipper = SocketShipper(proxy.address, page_size=512,
                                observability=shipper_hub)
        trace_id = new_trace_id()
        try:
            proxy.partition(mode="refuse")
            with pytest.raises(NetworkError):
                shipper.latest_sequence()
            proxy.heal()
            with trace_context(trace_id), \
                    shipper_hub.tracer.span("standby.catch-up"):
                assert shipper.fetch(1) is not None
        finally:
            shipper.close()
            proxy.stop()
            server.stop()
        records = [json.loads(line) for line in
                   server_hub.tracer.export_jsonl().splitlines()[1:]]
        joined = [r for r in records if r.get("trace") == trace_id]
        assert joined, "server records did not join the shipper's trace"
        assert [r["link"]["node"] for r in joined] == ["client-node"]


# -- flight recorder + postmortem ----------------------------------------------


class TestFlightRecorder:
    def test_failover_dumps_a_joined_cross_node_bundle(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        replica_set, client, disk, _standby_disks = _small_cluster(
            tmp_path, flight_dir=flight_dir)
        try:
            client.write(lambda db: db.add_document(XML))
            disk.crash_now()
            replica_set.failover("test: primary killed")
            last = replica_set.last_failover
            assert last is not None
            trace_id = last["trace_id"]
            bundle_dir = last.get("bundle") or self._latest_bundle(
                flight_dir)
            bundle = load_bundle(bundle_dir)
            assert bundle["manifest"]["reason"].startswith("failover:")
            assert bundle["manifest"]["trace_id"] == trace_id
            timeline = merge_timeline(bundle)
            in_trace = [r for r in timeline
                        if r.get("trace") == trace_id]
            names = {r.get("kind") for r in in_trace
                     if r.get("phase") in ("begin", "end")}
            for phase in ("cluster.fence", "cluster.elect",
                          "cluster.promote", "cluster.rebuild"):
                assert phase in names, (
                    "missing %s in %r" % (phase, sorted(names)))
            nodes = {r.get("node") for r in in_trace} - {None}
            assert len(nodes) >= 2, (
                "trace %s only seen on %r" % (trace_id, nodes))
            # Per-node trace files validate under the relaxed (live)
            # pairing rules.
            for node in bundle["nodes"].values():
                text = "\n".join(
                    json.dumps(record)
                    for record in [node["meta"]] + node["records"])
                problems = validate_jsonl(text)
                assert not problems, problems
            text = render(bundle, trace_id=trace_id)
            assert "cluster.promote" in text
        finally:
            replica_set.close()

    @staticmethod
    def _latest_bundle(flight_dir):
        import os
        bundles = sorted(entry for entry in os.listdir(flight_dir)
                         if entry.startswith("bundle-"))
        assert bundles, "no flight bundle written"
        return str(flight_dir) + "/" + bundles[-1]

    def test_postmortem_cli_renders_a_bundle(self, tmp_path, capsys):
        from repro.obs import postmortem

        flight_dir = str(tmp_path / "flight")
        replica_set, client, disk, _standby_disks = _small_cluster(
            tmp_path, flight_dir=flight_dir)
        try:
            client.write(lambda db: db.add_document(XML))
            disk.crash_now()
            replica_set.failover("test: cli render")
        finally:
            replica_set.close()
        bundle_dir = self._latest_bundle(flight_dir)
        assert postmortem.main([bundle_dir]) == 0
        out = capsys.readouterr().out
        assert "cluster.failover" in out

    def test_fatal_backend_error_also_dumps(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        replica_set, _client, _disk, _standby_disks = _small_cluster(
            tmp_path, flight_dir=flight_dir)
        try:
            replica_set.report_backend_failure(
                "node-1", RuntimeError("disk on fire"), fatal=True)
            bundle_dir = self._latest_bundle(flight_dir)
            bundle = load_bundle(bundle_dir)
            assert "fatal backend error" in bundle["manifest"]["reason"]
            assert "cluster.backend-failure" in {
                record.get("kind") for record in merge_timeline(bundle)}
        finally:
            replica_set.close()
