"""The redesigned client API: sessions, constructor defaults, the shared
``(runtime, profile)`` trio, warm joins, and the serving front end."""

import os
import sys
import threading
import time

import pytest

from repro import Session, XmlDatabase
from repro.core.api import StorageContext, structural_join
from repro.core.session import SessionError
from repro.obs.profile import QueryProfile
from repro.query.runtime import QueryContext, QueryRejected
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
        """A live session's engine is shared: threads calling
        ``db.query`` run it concurrently, and a guardrail tick may run a
        query of its own.  The inner run must not reset the outer one's
        join count or profile."""
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


class _Gate:
    """Holds every ``Session.query`` until :meth:`open` and records the
    thread each one ran on."""

    def __init__(self, monkeypatch):
        self._open = threading.Event()
        self.entered = threading.Semaphore(0)
        self.threads = []
        real = Session.query
        gate = self

        def query(session, path, runtime=None, profile=None):
            gate.threads.append(threading.get_ident())
            gate.entered.release()
            gate._open.wait(10)
            return real(session, path, runtime=runtime, profile=profile)

        monkeypatch.setattr(Session, "query", query)

    def open(self):
        self._open.set()


def _spawn(call):
    """Run ``call`` on a daemon thread; its outcome lands in the box."""
    box = {}

    def run():
        try:
            box["result"] = call()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _until(predicate, seconds=10):
    give_up = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.001)


class TestServer:
    def test_server_round_trip(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=2) as server:
            result = server.query("//employee/name")
            assert len(result.matches) == 1
            text = server.explain("//employee/name")
            assert "plan" in text
        assert not server.running

    def test_submit_requires_running_server(self, db):
        db.add_document(XML_ONE)
        db.flush()
        server = Server(db, workers=1)
        with pytest.raises(ServerError):
            server.query("//employee/name")
        with pytest.raises(ServerError):
            server.explain("//employee/name")
        server.start()
        server.stop()
        with pytest.raises(ServerError):
            server.query("//employee/name")
        assert db.metrics()["repro_server_requests_total"] == 0
        assert db.metrics()["repro_sessions_active"] == 0

    def test_server_metrics_registered(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=2) as server:
            server.query("//employee/name")
        snap = db.metrics()
        assert snap["repro_server_requests_total"] == 1
        assert snap["repro_server_latency_seconds"]["count"] == 1
        assert "repro_server_requests_total" in db.metrics_text()

    def test_query_runs_on_the_calling_thread(self, db, monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        gate.open()
        with Server(db, workers=2) as server:
            server.query("//employee/name")
            thread, box = _spawn(lambda: server.query("//employee/name"))
            thread.join(10)
        assert "error" not in box
        assert gate.threads == [threading.get_ident(), thread.ident]

    def test_one_runs_one_waits_the_third_is_rejected(self, db, monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1, queue_depth=1).start()
        try:
            running = _spawn(lambda: server.query("//employee/name"))
            assert gate.entered.acquire(timeout=10)
            waiting = _spawn(lambda: server.query("//employee/name"))
            _until(lambda: server._waiting == 1)
            with pytest.raises(QueryRejected):
                server.query("//employee/name")
            assert db.metrics()["repro_server_queue_depth"] == 1
            gate.open()
            for thread, box in (running, waiting):
                thread.join(10)
                assert len(box["result"].matches) == 1
        finally:
            server.stop()
        assert server.stats.rejected == 1
        assert server.stats.peak_queue == 1
        assert server.stats.served == 2
        assert db.metrics()["repro_server_queue_depth"] == 0

    def test_slot_wait_past_timeout_fails_and_is_counted(self, db,
                                                         monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1).start()
        try:
            thread, box = _spawn(lambda: server.query("//employee/name"))
            assert gate.entered.acquire(timeout=10)
            with pytest.raises(QueryRejected):
                server.query("//employee/name", timeout=0.05)
            gate.open()
            thread.join(10)
            assert len(box["result"].matches) == 1
        finally:
            server.stop()
        assert server.stats.timeouts == 1
        assert server.stats.rejected == 0
        assert db.metrics()["repro_server_timeouts"] == 1

    def test_commit_between_queries_repins_the_pooled_session(self, db):
        db.add_document(XML_ONE)
        db.flush()
        with Server(db, workers=1) as server:
            assert len(server.query("//employee/name").matches) == 1
            server.query("//employee/name")
            assert server.stats.session_refreshes == 1
            db.add_document(XML_TWO)
            db.flush()
            assert len(server.query("//employee/name").matches) == 2
            assert server.stats.session_refreshes == 2
        assert db.metrics()["repro_sessions_active"] == 0

    def test_stop_waits_for_in_flight_and_fails_waiters(self, db,
                                                        monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1).start()
        in_flight = _spawn(lambda: server.query("//employee/name"))
        assert gate.entered.acquire(timeout=10)
        waiter = _spawn(lambda: server.query("//employee/name"))
        _until(lambda: server._waiting == 1)
        stopper, _ = _spawn(server.stop)
        _until(lambda: not server.running)
        with pytest.raises(ServerError):
            server.query("//employee/name")
        stopper.join(0.1)
        assert stopper.is_alive(), "stop() returned with a call in flight"
        gate.open()
        for thread in (stopper, in_flight[0], waiter[0]):
            thread.join(10)
            assert not thread.is_alive()
        assert len(in_flight[1]["result"].matches) == 1
        assert isinstance(waiter[1]["error"], ServerError)
        assert db._context.disk.versions.pin_count == 0

    def test_stop_fails_queued_futures(self, db, monkeypatch):
        """stop() fails every caller still waiting for a slot: nobody is
        left waiting forever, and none of them runs a query."""
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1).start()
        in_flight = _spawn(lambda: server.query("//employee/name"))
        assert gate.entered.acquire(timeout=10)
        waiters = [_spawn(lambda: server.query("//employee/name"))
                   for _ in range(3)]
        _until(lambda: server._waiting == 3)
        stopper, _ = _spawn(server.stop)
        _until(lambda: not server.running)
        gate.open()
        for thread in [stopper, in_flight[0]] + [t for t, _ in waiters]:
            thread.join(10)
            assert not thread.is_alive()
        for _, box in waiters:
            assert isinstance(box["error"], ServerError)
            assert "server stopped" in str(box["error"])
        assert len(gate.threads) == 1
        assert server.stats.served == 1
        assert db.metrics()["repro_server_queue_depth"] == 0
        assert db._context.disk.versions.pin_count == 0

    def test_stop_fails_a_queued_caller_before_the_in_flight_call_ends(
            self, db, monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1).start()
        in_flight = _spawn(lambda: server.query("//employee/name"))
        assert gate.entered.acquire(timeout=10)
        waiter = _spawn(lambda: server.query("//employee/name"))
        _until(lambda: server._waiting == 1)
        stopper, _ = _spawn(server.stop)
        try:
            waiter[0].join(10)
            assert not waiter[0].is_alive(), \
                "the queued caller waited for the in-flight call"
            assert isinstance(waiter[1]["error"], ServerError)
            assert stopper.is_alive()
        finally:
            gate.open()
        for thread in (stopper, in_flight[0]):
            thread.join(10)
            assert not thread.is_alive()
        assert len(in_flight[1]["result"].matches) == 1
        assert server.stats.served == 1
        assert db.metrics()["repro_server_queue_depth"] == 0

    def test_a_shed_call_with_zero_timeout_counts_as_rejected(
            self, db, monkeypatch):
        db.add_document(XML_ONE)
        db.flush()
        gate = _Gate(monkeypatch)
        server = Server(db, workers=1, queue_depth=0).start()
        try:
            thread, box = _spawn(lambda: server.query("//employee/name"))
            assert gate.entered.acquire(timeout=10)
            with pytest.raises(QueryRejected):
                server.query("//employee/name", timeout=0)
        finally:
            gate.open()
            thread.join(10)
            server.stop()
        assert len(box["result"].matches) == 1
        assert server.stats.rejected == 1
        assert server.stats.timeouts == 0
        assert server.stats.peak_queue == 0
        assert db.metrics()["repro_server_timeouts"] == 0

    def test_negative_queue_depth_is_refused(self, db):
        with pytest.raises(ServerError):
            Server(db, workers=1, queue_depth=-1)

    def test_queue_drains_under_threads(self, db, monkeypatch):
        """Six callers on two slots: never more than two inside
        ``Session.query`` at once, and every one is served."""
        db.add_document(XML_ONE)
        db.flush()
        inside = []
        peak = [0]
        lock = threading.Lock()
        real = Session.query

        def query(session, path, runtime=None, profile=None):
            with lock:
                inside.append(1)
                peak[0] = max(peak[0], len(inside))
            try:
                time.sleep(0.005)
                return real(session, path, runtime=runtime,
                            profile=profile)
            finally:
                with lock:
                    inside.pop()

        monkeypatch.setattr(Session, "query", query)
        with Server(db, workers=2, queue_depth=8) as server:
            callers = [_spawn(lambda: server.query("//employee/name"))
                       for _ in range(6)]
            for thread, box in callers:
                thread.join(10)
                assert len(box["result"].matches) == 1
        assert peak[0] <= 2
        assert server.stats.served == 6
        assert server.stats.rejected == 0
