"""The serving front end over one :class:`XmlDatabase`: a read runs on
the caller's thread, under one admission bound, over pooled snapshot
sessions.

Many client threads call :meth:`Server.query` concurrently.  The server
starts no thread of its own; between the caller and the engine it keeps

* **one bound** — an :class:`~repro.query.admission.AdmissionController`
  with ``workers`` execution slots and room for ``queue_depth`` callers
  to wait for one.  A caller beyond that is shed at once with the
  controller's :class:`~repro.query.admission.QueryRejected`, so a
  saturated server answers "try later" instead of stacking work;
* **pooled snapshot sessions** — a free list of at most ``workers``
  :meth:`XmlDatabase.session` snapshots.  A caller checks one out under
  its slot, re-pins it when the database has committed past it, and
  checks it back in on exit: reads never block writers, writers never
  tear reads, and no session is used by two threads at once (a snapshot
  session's buffer pool is unlatched);
* **instruments** — ``repro_server_*`` counters/histograms here and a
  ``server-request`` span around the engine's ``query`` span.  The span
  opens on the caller's thread, so it joins the caller's trace as is.

Queries still pass the database's own admission controller when one is
attached, and inherit its per-query deadlines and page quotas.

    with Server(db, workers=8) as server:
        result = server.query("//employee[email]/name")
"""

import threading
import time

from repro.query.admission import AdmissionController, QueryRejected
from repro.query.runtime import QueryContext


class ServerError(Exception):
    """Server misuse: a call to a stopped server, double start."""


class ServerStats:
    """Lifetime counters for one server (thread-safe increments).

    ``peak_queue`` is the admission bound's high-water mark of callers
    waiting for a slot.
    """

    __slots__ = ("served", "errors", "rejected", "session_refreshes",
                 "timeouts", "_admission", "_lock")

    def __init__(self, admission):
        self.served = 0
        self.errors = 0
        self.rejected = 0
        self.session_refreshes = 0
        self.timeouts = 0      # slot waits that outlived the call's timeout
        self._admission = admission
        self._lock = threading.Lock()

    @property
    def peak_queue(self):
        return self._admission.stats.peak_waiting

    def _count(self, field, amount=1):
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def as_dict(self):
        return {
            "served": self.served,
            "errors": self.errors,
            "rejected": self.rejected,
            "session_refreshes": self.session_refreshes,
            "peak_queue": self.peak_queue,
            "timeouts": self.timeouts,
        }


class Server:
    """Serve path queries on the callers' threads, at most ``workers`` at
    once, with up to ``queue_depth`` more callers waiting for a slot.

    Admission control, deadlines and page quotas attached to the
    database still apply inside each call — the server adds the bound,
    the session pool and metrics, not policy.
    """

    def __init__(self, database, workers=4, queue_depth=128):
        if workers < 1:
            raise ServerError("workers must be at least 1")
        self._db = database
        self._admission = AdmissionController(max_active=workers,
                                              max_waiting=queue_depth)
        #: Guards ``_running``, ``_calls`` and ``_sessions``; ``stop()``
        #: waits on it for the last call to leave.
        self._cond = threading.Condition()
        self._running = False
        self._calls = 0
        self._sessions = []
        self.stats = ServerStats(self._admission)
        metrics = database.observability.metrics
        self._requests_total = metrics.counter(
            "repro_server_requests_total", "Requests accepted by the server")
        self._timeouts_total = metrics.counter(
            "repro_server_timeouts",
            "Slot waits that outlived the call's timeout")
        self._latency = metrics.histogram(
            "repro_server_latency_seconds",
            "End-to-end request latency (call to result)")
        self._queue_gauge = metrics.gauge(
            "repro_server_queue_depth", "Callers waiting for a slot")

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        with self._cond:
            if self._running:
                raise ServerError("server already started")
            self._running = True
        return self

    def stop(self):
        """Refuse new callers, let in-flight calls finish, then release
        the pooled sessions.

        A caller still waiting for a slot gets :class:`ServerError` when
        one frees, so once ``stop()`` returns no query runs here and no
        snapshot pin is left behind.
        """
        with self._cond:
            self._running = False
            self._cond.wait_for(lambda: not self._calls)
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            session.close()

    def __enter__(self):
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()

    @property
    def running(self):
        return self._running

    @property
    def observability(self):
        """The database's hub — the server instruments itself on it, so
        ops endpoints scrape server and database metrics together."""
        return self._db.observability

    # -- the client surface ----------------------------------------------------

    def query(self, path, runtime=None, profile=None, timeout=None):
        """Evaluate ``path`` on a pooled snapshot session, on this thread.

        ``timeout`` bounds the wait for a slot (a longer wait raises
        :class:`~repro.query.admission.QueryRejected` and counts in
        ``stats.timeouts``) and, when no ``runtime`` is given, becomes the
        run's :class:`~repro.query.runtime.QueryContext` deadline.
        """
        return self._call("query", path, runtime, profile, timeout)

    def explain(self, path, analyze=False, runtime=None, profile=None,
                timeout=None):
        """The plan for ``path``; same contract as :meth:`query`."""
        return self._call("explain", path, runtime, profile, timeout,
                          analyze=analyze)

    def _call(self, kind, path, runtime, profile, timeout, **options):
        with self._cond:
            if not self._running:
                raise ServerError("server is not running")
            self._calls += 1
        try:
            self._requests_total.inc()
            started = time.monotonic()
            try:
                slot = self._admission.acquire(timeout)
            except QueryRejected:
                if timeout is not None \
                        and time.monotonic() - started >= timeout:
                    self.stats._count("timeouts")
                    self._timeouts_total.inc()
                else:
                    self.stats._count("rejected")
                raise
            finally:
                self._queue_gauge.set(self._admission.waiting)
            with slot:
                if not self._running:
                    raise ServerError("server stopped")
                if runtime is None and timeout:
                    runtime = QueryContext(deadline=timeout)
                return self._serve(kind, path, runtime, profile, options,
                                   started)
        finally:
            with self._cond:
                self._calls -= 1
                if not self._calls:
                    self._cond.notify_all()

    def _serve(self, kind, path, runtime, profile, options, started):
        session = None
        tracer = self._db.observability.tracer
        try:
            with tracer.span("server-request", op=kind, path=str(path),
                             waited_seconds=time.monotonic() - started):
                session = self._checkout()
                result = getattr(session, kind)(
                    path, runtime=runtime, profile=profile, **options)
        except BaseException as exc:
            self.stats._count("errors")
            if isinstance(exc, QueryRejected):
                self.stats._count("rejected")
            raise
        else:
            self.stats._count("served")
            return result
        finally:
            if session is not None:
                with self._cond:
                    self._sessions.append(session)
            self._latency.observe(time.monotonic() - started)
            self._queue_gauge.set(self._admission.waiting)

    def _checkout(self):
        """A pooled session, re-pinned when the database has committed
        past it (bounds snapshot lag to one check per call)."""
        with self._cond:
            session = self._sessions.pop() if self._sessions else None
        if (session is None or session.closed
                or session.sequence < self._db.commit_sequence):
            if session is not None:
                session.close()
            session = self._db.session()
            self.stats._count("session_refreshes")
        return session
