"""ClusterClient: the fault-tolerant query surface over a ReplicaSet.

What a caller holds instead of a database handle.  Reads are **routed**:
the client asks the set for backends whose health admits traffic and
whose applied sequence is within the staleness bound
(:meth:`~repro.cluster.replicaset.ReplicaSet.read_candidates`), then
tries them in order under one per-request deadline — a retryable failure
(admission rejection, transient I/O, a per-attempt timeout, a dying
backend) is reported to the health machinery and the read **fails over**
to the next candidate after a short backoff.  Optionally a read is
**hedged**: when the first attempt has not answered within
``hedge_after`` seconds, a second backend is raced against it and the
first result wins.

Writes are deliberately narrower.  They go only to the current primary,
and a failed write is **never retried by the client**: once the mutation
has been handed to the database, a failure is *indeterminate* (the
commit may or may not have reached the journal), and blindly re-running
it could apply the mutation twice.  Instead the failure is reported
(waking the failover supervisor), and the caller decides — re-issuing
idempotent mutations after :meth:`wait_for_primary` is the intended
pattern, and the fault harness verifies the ack invariant this protects:
**an acknowledged commit is never lost**, because the ack only happens
after ``flush()`` returns and the standbys can replay everything acked.

Errors that are the *caller's* fault — bad path syntax, a row cap they
set, their own cancellation token — propagate immediately; failing over
to another backend would just fail the same way.

Every operation runs under a fresh **trace id** with a per-attempt
number: retries, hedges and the failover they trigger all stamp the same
id onto their spans (on whichever node's hub emits them), so one slow
read can be followed across backends in the exported trace.
"""

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.obs.trace import new_trace_id, trace_context

from repro.cluster.replicaset import (
    ClusterError,
    NoBackendAvailable,
    NoPrimaryError,
    is_fatal_backend_error,
)
from repro.query.runtime import DeadlineExceeded, QueryContext, QueryRejected
from repro.server.server import ServerError
from repro.storage.errors import (
    ReplicationError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import CrashPoint

#: Default per-request deadline for routed reads (seconds).
DEFAULT_READ_DEADLINE = 5.0
#: Delay between failover attempts within one read (seconds); doubles
#: per retry round once every candidate has been tried.
DEFAULT_RETRY_BACKOFF = 0.005

#: Failures worth trying another backend for.  QueryCancelled and
#: RowCapExceeded are *not* here: they are the caller's own guardrails
#: and would trip identically on every backend.
RETRYABLE_ERRORS = (
    QueryRejected,        # server queue full / slot wait ran out — try a peer
    TransientIOError,     # injected or real transient I/O
    DeadlineExceeded,     # per-attempt deadline, not the request's
    ReplicationError,     # replica refused (e.g. promoted mid-read)
    StorageError,         # backend storage failing
    ServerError,          # backend server stopped (fencing race)
    CrashPoint,           # backend died under us
    TimeoutError,         # a hedged race ran out of budget
    OSError,              # descriptor-level failures on a dying backend
)


class _StaleAtDispatch(Exception):
    """Internal: a backend fell past the staleness bound between ranking
    and dispatch.  Triggers failover to the next candidate but is *not*
    a health failure — a lagging backend is behind, not broken."""


class ClusterReadError(ClusterError):
    """Every eligible backend failed (or the deadline expired) for one
    read; ``attempts`` lists ``(backend_id, error)`` pairs."""

    def __init__(self, message, attempts=()):
        super(ClusterReadError, self).__init__(message)
        self.attempts = list(attempts)


class ClusterWriteError(ClusterError):
    """A write failed after reaching the primary.  **Indeterminate**: the
    commit may or may not be durable — the client does not retry it (a
    blind retry could commit the mutation twice).  ``acked`` is False."""

    def __init__(self, message, epoch=None):
        super(ClusterWriteError, self).__init__(message)
        self.epoch = epoch
        self.acked = False


class ClusterResult:
    """A routed read's answer plus where/how it was served."""

    __slots__ = ("rows", "backend_id", "role", "sequence", "staleness",
                 "attempts", "hedged", "elapsed_seconds")

    def __init__(self, rows, backend_id, role, sequence, staleness,
                 attempts, hedged, elapsed_seconds):
        self.rows = rows
        self.backend_id = backend_id
        self.role = role
        self.sequence = sequence
        self.staleness = staleness
        self.attempts = attempts
        self.hedged = hedged
        self.elapsed_seconds = elapsed_seconds

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return ("ClusterResult(%d rows from %s/%s seq=%d stale=%d "
                "attempts=%d%s)"
                % (len(self.rows), self.backend_id, self.role,
                   self.sequence, self.staleness, self.attempts,
                   " hedged" if self.hedged else ""))


class WriteAck:
    """A successful write: the commit sequence the cluster acknowledged
    durable, and the epoch it was written under."""

    __slots__ = ("sequence", "epoch")

    def __init__(self, sequence, epoch):
        self.sequence = sequence
        self.epoch = epoch

    def __repr__(self):
        return "WriteAck(sequence=%d, epoch=%d)" % (self.sequence,
                                                    self.epoch)


class ClusterClient:
    """Routed reads with retry/failover and at-most-once primary writes.

    ``staleness_bound`` (commit groups behind the acked head) defaults to
    the set's own; ``read_deadline`` bounds one whole routed read
    including every retry; ``hedge_after`` (None disables) races a second
    backend when the first attempt is slow.
    """

    def __init__(self, replica_set, staleness_bound=None,
                 read_deadline=DEFAULT_READ_DEADLINE,
                 retry_backoff=DEFAULT_RETRY_BACKOFF, hedge_after=None,
                 max_attempts=None):
        self._set = replica_set
        self.staleness_bound = staleness_bound
        self.read_deadline = read_deadline
        self.retry_backoff = retry_backoff
        self.hedge_after = hedge_after
        self.max_attempts = max_attempts
        self.clock = replica_set.clock
        self._hedge_pool = None
        self._hedge_lock = threading.Lock()
        metrics = replica_set.observability.metrics
        self._m_read_failovers = metrics.counter(
            "repro_cluster_read_failovers_total",
            "Reads that failed over to another backend at least once")
        self._m_hedge_launched = metrics.counter(
            "repro_cluster_hedge_launched_total",
            "Hedge requests launched after hedge_after of silence")
        self._m_hedge_won = metrics.counter(
            "repro_cluster_hedge_won_total",
            "Hedges that answered before the first attempt")
        self._m_write_errors = metrics.counter(
            "repro_cluster_write_errors_total",
            "Writes that failed (indeterminate, never auto-retried)")

    # -- reads -----------------------------------------------------------------

    def query(self, path, deadline=None, staleness_bound=None,
              hedge=None, runtime_options=None):
        """Route one read; returns a :class:`ClusterResult`.

        Tries eligible backends (least lag first) under ``deadline``
        seconds total; each attempt gets the remaining time as its own
        :class:`~repro.query.runtime.QueryContext` deadline.  Raises
        :class:`ClusterReadError` when every backend fails or the
        deadline expires, :class:`NoBackendAvailable` when no backend is
        within the staleness bound at all.
        """
        deadline = self.read_deadline if deadline is None else deadline
        hedge = self.hedge_after if hedge is None else hedge
        started = self.clock.now()
        give_up_at = started + deadline
        attempts = []
        tried_ids = set()
        backoff = self.retry_backoff
        trace_id = new_trace_id()
        with trace_context(trace_id):
            while True:
                remaining = give_up_at - self.clock.now()
                if remaining <= 0:
                    break
                if (self.max_attempts is not None
                        and len(attempts) >= self.max_attempts):
                    break
                candidates = self._candidates(staleness_bound, tried_ids)
                if not candidates:
                    if not tried_ids:
                        raise NoBackendAvailable(
                            "no backend within staleness bound %s"
                            % (staleness_bound if staleness_bound
                               is not None else self._bound()))
                    # Every candidate tried this round; sleep and allow
                    # re-tries (health may heal, failover may finish).
                    tried_ids.clear()
                    self.clock.sleep(min(backoff, max(0.0, remaining)))
                    backoff = min(backoff * 2, 0.25)
                    continue
                node = candidates[0]
                hedge_node = None
                if hedge is not None and len(candidates) > 1:
                    hedge_node = candidates[1]
                tried_ids.add(node.id)
                attempt_no = len(attempts) + 1
                try:
                    if hedge_node is not None:
                        result = self._attempt_hedged(
                            node, hedge_node, path, remaining, hedge,
                            runtime_options, started, attempts, tried_ids,
                            trace_id, attempt_no)
                    else:
                        result = self._attempt(node, path, remaining,
                                               runtime_options, trace_id,
                                               attempt_no)
                        result = self._finish(result, node, started,
                                              attempts, hedged=False)
                    if attempts:
                        self._m_read_failovers.inc()
                    return result
                except _StaleAtDispatch as exc:
                    attempts.append((node.id, exc))
                except RETRYABLE_ERRORS as exc:
                    attempts.append((node.id, exc))
                    self._set.report_backend_failure(node.id, exc)
            detail = "; ".join(
                "%s: %s" % (bid, err)
                for bid, err in attempts) or "no attempt ran"
            raise ClusterReadError(
                "read failed after %d attempt(s) in %.3fs (%s)"
                % (len(attempts), self.clock.now() - started, detail),
                attempts=attempts)

    def _bound(self):
        return (self._set.staleness_bound if self.staleness_bound is None
                else self.staleness_bound)

    def _candidates(self, staleness_bound, tried_ids):
        bound = (self._bound() if staleness_bound is None
                 else staleness_bound)
        nodes = self._set.read_candidates(staleness_bound=bound)
        return [node for node in nodes if node.id not in tried_ids]

    def _attempt(self, node, path, budget, runtime_options,
                 trace_id=None, attempt=None):
        """One read against one backend, deadline-bounded both ways: the
        engine checks the deadline cooperatively mid-query, and the
        primary's server gives up waiting for a slot once it has passed.

        The trace context is (re-)entered here explicitly because hedged
        attempts run on pool threads, which do not inherit the caller's
        thread-local context.
        """
        with trace_context(trace_id, attempt=attempt):
            options = dict(runtime_options or {})
            options.setdefault("deadline", budget)
            runtime = QueryContext(**options)
            acked = self._set.acked_sequence
            sequence = node.applied_sequence
            staleness = max(0, acked - sequence)
            if staleness > self._bound():
                raise _StaleAtDispatch(
                    "%s is %d group(s) behind the acked head at dispatch"
                    % (node.id, staleness))
            if node.role == "primary":
                rows = node.query(path, timeout=budget, runtime=runtime)
            else:
                rows = node.query(path, runtime=runtime)
            return rows, sequence, staleness

    def _finish(self, outcome, node, started, attempts, hedged):
        rows, sequence, staleness = outcome
        elapsed = self.clock.now() - started
        health = self._set.health_of(node.id)
        health.record_success(
            lag_segments=max(0, self._set.acked_sequence - sequence))
        return ClusterResult(rows, node.id, node.role, sequence, staleness,
                             len(attempts) + 1, hedged, elapsed)

    # -- hedged reads ----------------------------------------------------------

    def _pool(self):
        with self._hedge_lock:
            if self._hedge_pool is None:
                self._hedge_pool = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="repro-hedge")
            return self._hedge_pool

    def _attempt_hedged(self, node, hedge_node, path, budget, hedge_after,
                        runtime_options, started, attempts, tried_ids,
                        trace_id=None, attempt_no=1):
        """Race ``node`` against ``hedge_node`` after ``hedge_after``
        seconds of silence; first success wins, the loser is discarded.
        A hedge that fails does not fail the read — only the primary
        attempt's error is re-raised if both fail."""
        pool = self._pool()
        first = pool.submit(self._attempt, node, path, budget,
                            runtime_options, trace_id, attempt_no)
        done, _pending = wait([first], timeout=min(hedge_after, budget))
        if first in done:
            outcome = first.result()  # raises to the retry loop on error
            return self._finish(outcome, node, started, attempts,
                                hedged=False)
        self._m_hedge_launched.inc()
        tried_ids.add(hedge_node.id)
        second = pool.submit(self._attempt, hedge_node, path, budget,
                             runtime_options, trace_id, attempt_no + 1)
        futures = {first: node, second: hedge_node}
        deadline = time.monotonic() + budget
        while futures:
            timeout = max(0.0, deadline - time.monotonic())
            done, _pending = wait(list(futures), timeout=timeout,
                                  return_when=FIRST_COMPLETED)
            if not done:
                break  # budget exhausted; let the outer loop time out
            for future in done:
                winner = futures.pop(future)
                try:
                    outcome = future.result()
                except _StaleAtDispatch as exc:
                    attempts.append((winner.id, exc))
                    continue
                except RETRYABLE_ERRORS as exc:
                    attempts.append((winner.id, exc))
                    self._set.report_backend_failure(winner.id, exc)
                    continue
                if winner is hedge_node:
                    self._m_hedge_won.inc()
                return self._finish(outcome, winner, started, attempts,
                                    hedged=winner is hedge_node)
        raise TimeoutError(
            "hedged read got no answer from %s or %s within %.3fs"
            % (node.id, hedge_node.id, budget))

    # -- writes ----------------------------------------------------------------

    def write(self, mutate):
        """Run ``mutate(database)`` against the primary; at-most-once.

        Acks **after** ``flush()`` returns — the commit group is in the
        archive, so every standby can replay it and a subsequent failover
        cannot lose it.  Any failure raises :class:`ClusterWriteError`
        (or :class:`NoPrimaryError` before the mutation started); the
        client never re-runs ``mutate`` on its own, because a failure
        after the mutation reached the engine is indeterminate.
        """
        epoch, node = self._set.primary_for_write()
        with trace_context(new_trace_id()):
            try:
                with node.lock:
                    if node.fenced:
                        raise NoPrimaryError(
                            "primary %s fenced mid-write" % node.id)
                    value = mutate(node.database)
                    node.database.flush()
                    sequence = node.database.commit_sequence
            except NoPrimaryError:
                self._m_write_errors.inc()
                raise
            except BaseException as exc:
                self._m_write_errors.inc()
                fatal = is_fatal_backend_error(
                    exc, disk=node.database._context.disk)
                self._set.report_backend_failure(node.id, exc, fatal=fatal)
                raise ClusterWriteError(
                    "write failed on %s (epoch %d): %s — indeterminate, "
                    "not retried" % (node.id, epoch, exc),
                    epoch=epoch) from exc
            self._set.ack(sequence)
            del value  # the ack, not the mutation's value, is the contract
            return WriteAck(sequence, epoch)

    def add_document(self, source, name=None):
        """Convenience: :meth:`write` wrapping ``db.add_document``."""
        return self.write(lambda db: db.add_document(source, name=name))

    def wait_for_primary(self, timeout=5.0, poll=0.01):
        """Block until the set has a writable primary (post-failover);
        returns its epoch.  Raises :class:`NoPrimaryError` on timeout."""
        give_up = self.clock.now() + timeout
        while True:
            try:
                epoch, _node = self._set.primary_for_write()
                return epoch
            except NoPrimaryError:
                if self.clock.now() >= give_up:
                    raise
                self.clock.sleep(poll)

    def close(self):
        with self._hedge_lock:
            if self._hedge_pool is not None:
                self._hedge_pool.shutdown(wait=False)
                self._hedge_pool = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
