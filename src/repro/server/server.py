"""A thread-pool serving front end over one :class:`XmlDatabase`.

The ROADMAP's serving story ends here: many clients submit path queries
concurrently, a fixed pool of worker threads answers them, and every
layer built earlier does its job on the way through —

* each worker holds a **snapshot session** (:meth:`XmlDatabase.session`)
  and answers from its pinned commit sequence; a worker refreshes its
  session when it notices the database has committed past it, so reads
  never block writers and writers never tear reads;
* queries route through the database's
  :class:`~repro.query.admission.AdmissionController` (attach one to the
  database; saturated servers shed load with
  :class:`~repro.query.admission.QueryRejected` instead of queueing
  forever) and inherit its per-query deadlines and page quotas;
* the shared observability hub sees everything: ``server-request``
  spans from the workers (around the engine's ``query`` spans),
  ``repro_server_*`` counters/histograms here, and the database's
  ``repro_sessions_active`` / ``repro_snapshot_lag`` gauges.

The server is in-process (callers hold a :class:`concurrent.futures.\
Future`), which keeps the reproduction dependency-free while exercising
the real concurrency: hundreds of client threads against a worker pool
against one storage engine.

    server = Server(db, workers=8)
    with server:
        future = server.submit("//employee[email]/name")
        result = future.result()
"""

import queue
import threading
import time
from concurrent.futures import Future

from repro.obs.trace import current_context, trace_context
from repro.query.admission import QueryRejected

_STOP = object()


class ServerError(Exception):
    """Server misuse: submitting to a stopped server, double start."""


class ServerStats:
    """Lifetime counters for one server (thread-safe increments)."""

    __slots__ = ("served", "errors", "rejected", "session_refreshes",
                 "peak_queue", "timeouts", "cancelled", "drained", "_lock")

    def __init__(self):
        self.served = 0
        self.errors = 0
        self.rejected = 0
        self.session_refreshes = 0
        self.peak_queue = 0
        self.timeouts = 0      # synchronous query() waits that timed out
        self.cancelled = 0     # requests cancelled before a worker ran them
        self.drained = 0       # requests failed by stop() while still queued
        self._lock = threading.Lock()

    def _count(self, field, amount=1):
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def _saw_queue(self, depth):
        with self._lock:
            if depth > self.peak_queue:
                self.peak_queue = depth

    def as_dict(self):
        return {
            "served": self.served,
            "errors": self.errors,
            "rejected": self.rejected,
            "session_refreshes": self.session_refreshes,
            "peak_queue": self.peak_queue,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "drained": self.drained,
        }


class _Request:
    __slots__ = ("kind", "path", "snapshot", "runtime", "profile",
                 "analyze", "future", "submitted_at", "trace")

    def __init__(self, kind, path, snapshot, runtime, profile, analyze):
        self.kind = kind
        self.path = path
        self.snapshot = snapshot
        self.runtime = runtime
        self.profile = profile
        self.analyze = analyze
        self.future = Future()
        self.submitted_at = time.monotonic()
        # Capture the submitter's trace context: the worker thread that
        # serves this request re-enters it, so the server-request span
        # joins the caller's trace across the thread hop.
        self.trace = current_context()


class Server:
    """Serve path queries from ``workers`` threads over snapshot sessions.

    ``queue_depth`` bounds the request queue; a full queue makes
    non-blocking submits fail fast (the future carries
    :class:`~repro.query.admission.QueryRejected`) while blocking submits
    wait for room.  Admission control, deadlines and page quotas come
    from whatever controller is attached to the database — the server
    adds dispatch, per-worker snapshots and metrics, not policy.
    """

    def __init__(self, database, workers=4, queue_depth=128):
        if workers < 1:
            raise ServerError("workers must be at least 1")
        self._db = database
        self._workers = workers
        self._queue = queue.Queue(queue_depth)
        self._threads = []
        self._running = False
        self.stats = ServerStats()
        metrics = database.observability.metrics
        self._requests_total = metrics.counter(
            "repro_server_requests_total", "Requests accepted by the server")
        self._timeouts_total = metrics.counter(
            "repro_server_timeouts",
            "Synchronous query() waits that hit their timeout")
        self._cancelled_total = metrics.counter(
            "repro_server_cancelled_total",
            "Requests cancelled while still queued (timeout or stop)")
        self._latency = metrics.histogram(
            "repro_server_latency_seconds",
            "End-to-end request latency (submit to result)")
        self._queue_gauge = metrics.gauge(
            "repro_server_queue_depth", "Requests waiting for a worker")

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        if self._running:
            raise ServerError("server already started")
        self._running = True
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,),
                name="repro-server-%d" % index, daemon=True)
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self):
        """Stop every worker, then fail whatever is still queued.

        Workers finish the requests ahead of their stop sentinel; anything
        left behind (requests racing a concurrent stop, or cancelled
        leftovers) is drained and its future failed with
        :class:`ServerError` — no caller is ever left hanging on a future
        the server will not serve.
        """
        if not self._running:
            return
        self._running = False
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads = []
        self._drain_queue()

    def _drain_queue(self):
        """Fail every request still in the queue (the server is stopped)."""
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _STOP:
                continue
            if request.future.set_running_or_notify_cancel():
                self.stats._count("drained")
                self.stats._count("errors")
                request.future.set_exception(
                    ServerError("server stopped"))
        self._queue_gauge.set(0)

    def __enter__(self):
        if not self._threads:
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

    def submit(self, path, snapshot=True, runtime=None, profile=None,
               block=True):
        """Enqueue a query; returns a :class:`concurrent.futures.Future`.

        ``snapshot=False`` runs against the live (staged-writes-visible)
        state instead of the worker's pinned snapshot.  ``block=False``
        sheds load immediately when the queue is full: the future fails
        with :class:`~repro.query.admission.QueryRejected`.
        """
        return self._enqueue(_Request("query", path, snapshot, runtime,
                                      profile, False), block)

    def explain(self, path, analyze=False, snapshot=True, runtime=None,
                profile=None, block=True):
        """Enqueue an explain; same contract as :meth:`submit`."""
        return self._enqueue(_Request("explain", path, snapshot, runtime,
                                      profile, analyze), block)

    def query(self, path, snapshot=True, runtime=None, profile=None,
              timeout=None):
        """Submit and wait: the synchronous convenience wrapper.

        A ``timeout`` that expires does not abandon the request: the
        future is cancelled, so a still-queued request is skipped by the
        workers instead of running for a caller that gave up.  (A request
        already running completes and its result is dropped — cooperative
        cancellation mid-query belongs to
        :class:`~repro.query.runtime.QueryContext` deadlines.)
        """
        future = self.submit(path, snapshot=snapshot, runtime=runtime,
                             profile=profile)
        try:
            return future.result(timeout)
        except TimeoutError:
            self.stats._count("timeouts")
            self._timeouts_total.inc()
            if future.cancel():
                self.stats._count("cancelled")
                self._cancelled_total.inc()
            raise

    def _enqueue(self, request, block):
        if not self._running:
            raise ServerError("server is not running")
        self._requests_total.inc()
        try:
            if block:
                self._queue.put(request)
            else:
                self._queue.put_nowait(request)
        except queue.Full:
            self.stats._count("rejected")
            request.future.set_exception(
                QueryRejected("server queue full (%d waiting)"
                              % self._queue.maxsize))
            return request.future
        depth = self._queue.qsize()
        self.stats._saw_queue(depth)
        self._queue_gauge.set(depth)
        if not self._running:
            # Raced a concurrent stop(): the workers may already be gone,
            # so fail anything that slipped in behind their sentinels.
            self._drain_queue()
        return request.future

    # -- workers ---------------------------------------------------------------

    def _worker_loop(self, index):
        session = None
        try:
            while True:
                request = self._queue.get()
                if request is _STOP:
                    return
                session = self._serve(index, request, session)
        finally:
            if session is not None:
                session.close()

    def _serve(self, index, request, session):
        future = request.future
        if not future.set_running_or_notify_cancel():
            # Cancelled while queued (a timed-out synchronous caller):
            # skip the work entirely.
            self._queue_gauge.set(self._queue.qsize())
            return session
        tracer = self._db.observability.tracer
        queued = time.monotonic() - request.submitted_at
        ctx = request.trace
        with trace_context(*(ctx if ctx is not None else (None,))), \
                tracer.span("server-request", worker=index, op=request.kind,
                            path=str(request.path), queued_seconds=queued):
            try:
                if request.snapshot:
                    session = self._fresh(session)
                    surface = session
                else:
                    surface = self._db
                if request.kind == "query":
                    result = surface.query(request.path,
                                           runtime=request.runtime,
                                           profile=request.profile)
                else:
                    result = surface.explain(request.path,
                                             analyze=request.analyze,
                                             runtime=request.runtime,
                                             profile=request.profile)
            except BaseException as exc:
                self.stats._count("errors")
                if isinstance(exc, QueryRejected):
                    self.stats._count("rejected")
                future.set_exception(exc)
            else:
                self.stats._count("served")
                future.set_result(result)
            finally:
                self._latency.observe(time.monotonic() - request.submitted_at)
                self._queue_gauge.set(self._queue.qsize())
        return session

    def _fresh(self, session):
        """The worker's snapshot session, re-pinned when the database has
        committed past it (bounds snapshot lag to one refresh check)."""
        if (session is None or session.closed
                or session.sequence < self._db.commit_sequence):
            if session is not None:
                session.close()
            session = self._db.session()
            self.stats._count("session_refreshes")
        return session
