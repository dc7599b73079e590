"""The serving front end over one :class:`XmlDatabase`: a read runs on
the caller's thread, under one admission bound, over pooled snapshot
sessions.

Many client threads call :meth:`Server.query` concurrently.  The server
starts no thread of its own; between the caller and the engine it keeps

* **one bound** — ``workers`` execution slots and room for
  ``queue_depth`` callers to wait for one, counted on the server's one
  condition variable.  A caller beyond that is shed at once with
  :class:`~repro.query.runtime.QueryRejected`, so a saturated server
  answers "try later" instead of stacking work.  It is the only query
  gate: the database itself queues and sheds nothing;
* **pooled snapshot sessions** — a free list of at most ``workers``
  :meth:`XmlDatabase.session` snapshots.  A caller checks one out under
  its slot, re-pins it when the database has committed past it, and
  checks it back in on exit: reads never block writers, writers never
  tear reads, and no session is used by two threads at once;
* **instruments** — ``repro_server_*`` counters/histograms here and a
  ``server-request`` span around the engine's ``query`` span.  The span
  opens on the caller's thread, so it joins the caller's trace as is.

    with Server(db, workers=8) as server:
        result = server.query("//employee[email]/name")
"""

import threading
import time

from repro.query.runtime import QueryContext, QueryRejected


class ServerError(Exception):
    """Server misuse: a call to a stopped server, double start."""


class ServerStats:
    """Lifetime counters for one server, written under its condition
    variable.

    ``timeouts`` counts slot waits that outlived the call's timeout;
    ``rejected`` counts callers shed by a full queue; ``peak_queue`` is
    the high-water mark of callers waiting for a slot.
    """

    __slots__ = ("served", "errors", "rejected", "session_refreshes",
                 "timeouts", "peak_queue")

    def __init__(self):
        self.served = 0
        self.errors = 0
        self.rejected = 0
        self.session_refreshes = 0
        self.timeouts = 0
        self.peak_queue = 0

    def as_dict(self):
        return {field: getattr(self, field) for field in self.__slots__}


class Server:
    """Serve path queries on the callers' threads, at most ``workers`` at
    once, with up to ``queue_depth`` more callers waiting for a slot.

    A per-call ``timeout`` is the only other limit; deadlines, page
    quotas and row caps ride on the caller's own ``runtime``.
    """

    def __init__(self, database, workers=4, queue_depth=128):
        if workers < 1:
            raise ServerError("workers must be at least 1")
        if queue_depth < 0:
            raise ServerError("queue_depth must be non-negative")
        self._db = database
        self._workers = workers
        self._queue_depth = queue_depth
        #: Guards the slot counts, ``_running``, ``_sessions`` and
        #: ``stats``.  Callers wait on it for a slot, ``stop()`` for the
        #: last call to leave.
        self._cond = threading.Condition()
        self._running = False
        self._active = 0
        self._waiting = 0
        self._sessions = []
        self.stats = ServerStats()
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
        """Refuse new callers, fail the queued ones, let in-flight calls
        finish, then release the pooled sessions.

        A caller still waiting for a slot gets :class:`ServerError` at
        once, so once ``stop()`` returns no query runs here and no
        snapshot pin is left behind.
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
            self._cond.wait_for(lambda: not self._active)
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
        :class:`~repro.query.runtime.QueryRejected` and counts in
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
        started = time.monotonic()
        self._admit(timeout)
        served = False
        session = None
        try:
            if runtime is None and timeout:
                runtime = QueryContext(deadline=timeout)
            with self._db.observability.tracer.span(
                    "server-request", op=kind, path=str(path),
                    waited_seconds=time.monotonic() - started):
                session = self._checkout()
                result = getattr(session, kind)(
                    path, runtime=runtime, profile=profile, **options)
            served = True
            return result
        finally:
            self._latency.observe(time.monotonic() - started)
            with self._cond:
                if served:
                    self.stats.served += 1
                else:
                    self.stats.errors += 1
                if session is not None:
                    self._sessions.append(session)
                self._active -= 1
                # Only queued callers wait on the condition while the
                # server runs; once stopped, stop() does.
                if self._running:
                    self._cond.notify()
                else:
                    self._cond.notify_all()

    def _admit(self, timeout):
        """Take a slot, waiting behind at most ``queue_depth`` others for
        up to ``timeout`` seconds (None: no limit)."""
        with self._cond:
            if not self._running:
                raise ServerError("server is not running")
            self._requests_total.inc()
            if self._active >= self._workers:
                if self._waiting >= self._queue_depth:
                    self.stats.rejected += 1
                    raise QueryRejected(
                        "server queue full (%d active, %d waiting)"
                        % (self._active, self._waiting))
                self._waiting += 1
                self.stats.peak_queue = max(self.stats.peak_queue,
                                            self._waiting)
                self._queue_gauge.set(self._waiting)
                try:
                    freed = self._cond.wait_for(
                        lambda: self._active < self._workers
                        or not self._running, timeout)
                finally:
                    self._waiting -= 1
                    self._queue_gauge.set(self._waiting)
                if not self._running:
                    raise ServerError("server stopped")
                if not freed:
                    self.stats.timeouts += 1
                    self._timeouts_total.inc()
                    raise QueryRejected(
                        "no slot freed within %.3fs" % timeout)
            self._active += 1

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
            with self._cond:
                self.stats.session_refreshes += 1
        return session
