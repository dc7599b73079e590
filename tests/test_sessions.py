"""The redesigned client API: sessions, constructor defaults, the shared
``(runtime, profile)`` trio, warm joins, and the serving front end."""

import os
import sys
import threading

import pytest

from repro import Session, XmlDatabase
from repro.core.api import StorageContext, structural_join
from repro.core.session import SessionError
from repro.obs.profile import QueryProfile
from repro.query.admission import AdmissionController, QueryRejected
from repro.query.runtime import QueryContext
from repro.server import Server, ServerError
from repro.storage.errors import StorageError

XML_ONE = ("<department><employee><name>ada</name>"
           "<email>a@x</email></employee></department>")
XML_TWO = ("<department><employee><name>bob</name>"
           "</employee></department>")


@pytest.fixture
def db():
    database = XmlDatabase.create(page_size=512, buffer_pages=64)
    yield database
    database.close()


def starts(result):
    return sorted((e.doc_id, e.start) for e in result.matches)


class TestSession:
    def test_snapshot_session_is_frozen_at_open(self, db):
        db.add_document(XML_ONE)
        with db.session() as session:
            before = starts(session.query("//employee/name"))
            db.add_document(XML_TWO)
            db.flush()
            assert starts(session.query("//employee/name")) == before
            assert len(starts(db.query("//employee/name"))) == 2
        assert session.closed

    def test_live_session_sees_staged_writes(self, db):
        db.add_document(XML_ONE)
        with db.session(snapshot=False) as session:
            assert session.sequence is None
            db.add_document(XML_TWO)  # staged, not committed
            assert len(starts(session.query("//employee/name"))) == 2

    def test_sequence_tracks_commit_sequence(self, db):
        db.add_document(XML_ONE)
        with db.session() as session:
            assert session.sequence == db.commit_sequence
            db.add_document(XML_TWO)
            db.flush()
            assert db.commit_sequence == session.sequence + 1

    def test_closed_session_rejects_queries(self, db):
        session = db.session()
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionError):
            session.query("//a/b")
        with pytest.raises(SessionError):
            session.tags()

    def test_session_entry_surface_matches_database(self, db):
        db.add_document(XML_ONE)
        with db.session() as session:
            assert session.tags() == db.tags()
            for tag in db.tags():
                assert session.entries_for_tag(tag) == \
                    db.entries_for_tag(tag)
            assert session.entries_for_tag("nonesuch") == []

    def test_session_routes_through_admission(self, db):
        db.add_document(XML_ONE)
        controller = db.attach_admission(
            AdmissionController(max_active=2, max_waiting=0))
        with db.session() as session:
            session.query("//employee/name")
        assert controller.stats.admitted >= 1

    def test_version_store_drains_after_release(self, db):
        db.add_document(XML_ONE)
        versions = db._context.disk.versions
        with db.session():
            db.add_document(XML_TWO)
            db.flush()
            assert versions.retained_images > 0
        assert versions.pin_count == 0
        assert versions.retained_images == 0

    def test_session_gauges(self, db):
        db.add_document(XML_ONE)
        with db.session():
            db.add_document(XML_TWO)
            db.flush()
            snap = db.metrics()
            assert snap["repro_sessions_active"] == 1
            assert snap["repro_snapshot_lag"] == 1
        snap = db.metrics()
        assert snap["repro_sessions_active"] == 0
        assert snap["repro_snapshot_lag"] == 0

    def test_unjournaled_disk_refuses_snapshots(self, tmp_path):
        database = XmlDatabase.create(str(tmp_path / "d.db"),
                                      page_size=512, durability="none")
        try:
            with pytest.raises(StorageError):
                database.session()
        finally:
            database.close()

    def test_fresh_database_bootstrap_commits(self):
        database = XmlDatabase.create(page_size=512)
        try:
            assert database.commit_sequence == 0
            with database.session() as session:
                assert session.sequence == 1
                assert session.tags() == []
        finally:
            database.close()

    def test_database_close_releases_open_sessions(self):
        database = XmlDatabase.create(page_size=512)
        database.add_document(XML_ONE)
        session = database.session()
        database.close()
        assert session.closed

    def test_is_session_type(self, db):
        with db.session() as session:
            assert isinstance(session, Session)
            assert session.is_snapshot
            assert "snapshot" in repr(session)


class TestReadsWriteNothing:
    PATHS = ("//department/employee/name", "//employee[email]/name",
             "//department//employee[name]//email", "//department/*",
             "//name/parent::employee")

    def test_queries_leave_a_file_backed_database_untouched(self, tmp_path):
        path = str(tmp_path / "d.db")
        database = XmlDatabase.create(path, page_size=512, buffer_pages=64)
        try:
            for _ in range(4):
                database.add_document(XML_ONE)
                database.add_document(XML_TWO)
            database.flush()
            disk = database._context.disk

            def footprint():
                return (disk.allocated_page_count, os.path.getsize(path),
                        database.commit_sequence,
                        disk.durability_stats.commits)

            before = footprint()
            expected = [starts(database.query(p)) for p in self.PATHS]
            assert all(expected)
            with database.session() as session, \
                    Server(database, workers=2) as server:
                for run in (database.query, session.query, server.query):
                    for _ in range(2):
                        got = [starts(run(p)) for p in self.PATHS]
                        assert got == expected
                assert session._disk.allocated_page_count == before[0]
                with pytest.raises(StorageError):
                    session._disk.allocate()
            assert footprint() == before
        finally:
            database.close()


class TestReentrantQueries:
    def test_query_inside_a_query_keeps_the_outer_runs_state(self, db):
        """A live session's engine is shared: server workers serving
        ``snapshot=False`` requests call it concurrently, and a guardrail
        tick may run a query of its own.  The inner run must not reset the
        outer one's join count or profile."""
        db.add_document("<r><a><b/><c/></a><a><b/></a></r>")
        inner = []

        class QueryingContext(QueryContext):
            def tick(self):
                if not inner:
                    inner.append(db.query("//a/c"))
                super().tick()

        profile = QueryProfile()
        result = db.query("//r//a/b", runtime=QueryingContext(),
                          profile=profile)
        assert len(inner) == 1 and len(inner[0]) == 1
        assert len(result) == 2
        assert result.joins_run == 2
        assert [op.name for op in profile.operators] == [
            "scan //r", "descendant-join //a", "child-join //b"]

    def test_concurrent_live_queries_keep_their_own_runs(self, db):
        """More threads than cores share the live engine with a short
        switch interval; every run must report its own joins and
        operators, which a per-engine run field would mix up."""
        db.add_document("<r>%s</r>" % ("<a><b/><c><b/></c></a>" * 40))
        paths = {"//r//a/b": 2, "//r/a//c/b": 3, "//a[c]/b": 2}
        expected = {path: (len(db.query(path)),
                           [op.name for op in self._profiled(db, path)[1]
                            .operators])
                    for path in paths}
        errors = []

        def worker(seed):
            try:
                for turn in range(20):
                    path = sorted(paths)[(seed + turn) % len(paths)]
                    result, profile = self._profiled(db, path)
                    assert result.joins_run == paths[path]
                    assert (len(result), [op.name for op in
                                          profile.operators]) \
                        == expected[path]
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range((os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    @staticmethod
    def _profiled(db, path):
        profile = QueryProfile()
        return db.query(path, profile=profile), profile


class TestExplainParity:
    def test_profile_implies_analyze_everywhere(self, db):
        db.add_document(XML_ONE)
        profile = QueryProfile("//employee/name", "xr-stack")
        text = db.explain("//employee/name", profile=profile)
        assert "actual" in text or profile.operators
        with db.session() as session:
            session_profile = QueryProfile("//employee/name", "xr-stack")
            session.explain("//employee/name", profile=session_profile)
            assert session_profile.operators

    def test_query_and_explain_share_the_trio(self, db):
        db.add_document(XML_ONE)
        import inspect

        for owner in (db, db.session()):
            for name in ("query", "explain"):
                parameters = inspect.signature(
                    getattr(owner, name)).parameters
                assert "runtime" in parameters
                assert "profile" in parameters


class TestDatabaseConfig:
    def test_defaults_unchanged_without_config(self):
        database = XmlDatabase.create()
        try:
            assert database._context.disk.page_size == 4096
            assert database._context.pool.capacity == 256
        finally:
            database.close()


class TestWarmJoin:
    def test_cold_join_counts_build_separately(self, db):
        db.add_document(XML_ONE)
        ancestors = db.entries_for_tag("employee")
        descendants = db.entries_for_tag("name")
        cold = structural_join(ancestors, descendants,
                               algorithm="xr-stack")
        assert cold.pairs
        warm = structural_join(ancestors, descendants,
                               algorithm="xr-stack", cold=False)
        assert warm.pairs == cold.pairs
        assert warm.build_page_misses == 0

    def test_warm_join_reuses_resident_pages(self):
        context = StorageContext(page_size=512, buffer_pages=64)
        entries_a = []
        entries_d = []
        db = XmlDatabase.create(page_size=512, buffer_pages=64)
        db.add_document(XML_ONE)
        entries_a = db.entries_for_tag("employee")
        entries_d = db.entries_for_tag("name")
        db.close()
        first = structural_join(entries_a, entries_d, algorithm="b+",
                                context=context, cold=False)
        second = structural_join(entries_a, entries_d, algorithm="b+",
                                 context=context, cold=False)
        assert second.pairs == first.pairs
        assert second.page_misses <= first.page_misses


class TestServer:
    def test_server_round_trip(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=2) as server:
            result = server.query("//employee/name")
            assert len(result.matches) == 1
            text = server.explain("//employee/name").result(10)
            assert "plan" in text
        assert not server.running

    def test_submit_requires_running_server(self, db):
        server = Server(db, workers=1)
        with pytest.raises(ServerError):
            server.submit("//a/b")

    def test_full_queue_sheds_load_without_blocking(self, db):
        db.add_document(XML_ONE)
        db.flush()
        server = Server(db, workers=1, queue_depth=1)
        # Not started: workers never drain, so the queue fills.
        server._running = True
        first = server.submit("//employee/name", block=False)
        shed = None
        for _ in range(3):  # qsize is advisory; fill until rejection
            shed = server.submit("//employee/name", block=False)
            if shed.done():
                break
        assert isinstance(shed.exception(0), QueryRejected)
        assert server.stats.rejected >= 1
        assert not first.done()  # queued, awaiting a worker

    def test_server_metrics_registered(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=2) as server:
            server.query("//employee/name")
        snap = db.metrics()
        assert snap["repro_server_requests_total"] == 1
        assert snap["repro_server_latency_seconds"]["count"] == 1
        assert "repro_server_requests_total" in db.metrics_text()

    def test_snapshot_false_serves_staged_state(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=1) as server:
            db.add_document(XML_TWO)  # staged only
            live = server.query("//employee/name", snapshot=False)
            assert len(live.matches) == 2

    def test_timed_out_query_is_cancelled_not_abandoned(self, db):
        """A synchronous query() whose wait expires cancels its request:
        the worker skips it instead of running work nobody wants."""
        db.add_document(XML_ONE)
        db.flush()
        gate = threading.Event()
        real_query = db.query

        def gated_query(path, runtime=None, profile=None):
            gate.wait(10)
            return real_query(path, runtime=runtime, profile=profile)

        db.query = gated_query
        server = Server(db, workers=1).start()
        try:
            # Wedge the only worker, then time out behind it.
            blocker = server.submit("//employee/name", snapshot=False)
            with pytest.raises(TimeoutError):
                server.query("//employee/name", snapshot=False,
                             timeout=0.05)
            assert server.stats.timeouts == 1
            assert server.stats.cancelled == 1
            gate.set()
            # The cancelled request is skipped: only the blocker and this
            # follow-up are ever served.
            server.query("//employee/name", snapshot=False, timeout=10)
            blocker.result(10)
            assert server.stats.served == 2
        finally:
            db.query = real_query
            server.stop()
        snap = db.metrics()
        assert snap["repro_server_timeouts"] == 1
        assert snap["repro_server_cancelled_total"] == 1

    def test_stop_fails_queued_futures(self, db):
        """stop() drains the queue: nobody is left waiting forever on a
        future no worker will ever serve."""
        db.add_document(XML_ONE)
        db.flush()
        server = Server(db, workers=2)
        server._running = True  # accepted requests, workers not yet up
        futures = [server.submit("//employee/name") for _ in range(3)]
        server.stop()
        for future in futures:
            with pytest.raises(ServerError, match="server stopped"):
                future.result(1)
        assert server.stats.drained == 3
        assert server.stats.as_dict()["drained"] == 3
        assert db.metrics()["repro_server_queue_depth"] == 0
