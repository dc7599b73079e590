"""Per-backend health tracking: a state machine plus a circuit breaker.

Every backend of a :class:`~repro.cluster.replicaset.ReplicaSet` — the
primary and each standby — owns one :class:`BackendHealth` driven by
probe outcomes:

* ``healthy``: serving traffic; one probe failure moves it to
  ``suspect``;
* ``suspect``: still serving (ranked behind healthy peers) — one probe
  success heals it back to ``healthy``, ``down_after`` consecutive
  failures in total take it ``down``;
* ``down``: receives **no traffic** and, while its circuit breaker is
  open, no probes either.  After ``cooldown_seconds`` the breaker lets
  exactly one probe through (half-open): success heals the backend to
  ``healthy``, failure re-opens the breaker for another cooldown.

A *fatal* failure (dead disk, crash point) skips the suspect ladder and
opens the breaker immediately — there is no point probing a process that
is gone every few milliseconds.

A **network** failure (``kind="network"``: connect refused, read
timeout, rejected frame — anything
:func:`~repro.net.errors.is_network_error` recognizes) walks the ladder
too, but against its own, typically *larger* threshold
(``network_down_after``): a partition blip should make a backend
suspect, not trigger failover, while a genuinely unreachable node still
goes down once the blip outlives the threshold.  Network failures are
never fatal — the node behind the partition may be perfectly healthy.

The clock is injectable (:class:`~repro.storage.timemodel.SystemClock` /
:class:`~repro.storage.timemodel.VirtualClock`), so breaker timing is
testable in virtual time.  All methods are thread-safe: probes arrive
from the heartbeat thread while client threads report request failures.
"""

import threading

from repro.storage.timemodel import SystemClock

#: The three health states, in degradation order.
HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"

#: How many state transitions one backend retains for introspection.
TRANSITION_LOG_CAPACITY = 32


class BackendHealth:
    """The ``healthy → suspect → down`` state machine for one backend."""

    def __init__(self, backend_id, down_after=3, cooldown_seconds=0.25,
                 network_down_after=None, clock=None):
        if down_after < 1:
            raise ValueError("down_after must be at least 1")
        if network_down_after is None:
            # Default: tolerate twice as many network failures as plain
            # ones before declaring death — partitions heal, disks don't.
            network_down_after = down_after * 2
        if network_down_after < 1:
            raise ValueError("network_down_after must be at least 1")
        self.backend_id = backend_id
        self.down_after = down_after
        self.network_down_after = network_down_after
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock if clock is not None else SystemClock()
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.lag_segments = 0
        self.probes = 0
        self.failures = 0
        self.network_failures = 0
        self.last_failure_reason = None
        self.last_failure_kind = None
        self.transitions = []
        self._breaker_open_until = None
        #: True while the current consecutive-failure run is network-only.
        self._run_all_network = True
        self._lock = threading.Lock()

    # -- probe outcomes ------------------------------------------------------

    def record_success(self, lag_segments=None):
        """A probe (or served request) succeeded; heals suspect/down."""
        with self._lock:
            self.probes += 1
            self.consecutive_failures = 0
            self._run_all_network = True
            self._breaker_open_until = None
            if lag_segments is not None:
                self.lag_segments = max(0, lag_segments)
            if self.state != HEALTHY:
                self._transition(HEALTHY, "probe succeeded")

    def record_failure(self, reason, fatal=False, kind=None):
        """A probe or request against this backend failed.

        ``fatal=True`` (dead disk, crash) goes straight to ``down`` and
        opens the circuit breaker; otherwise the first failure makes a
        healthy backend suspect and ``down_after`` in a row take it down.  ``kind="network"``
        marks a transport-level failure: it counts toward the (larger)
        ``network_down_after`` threshold for as long as the run of
        consecutive failures is network-only, so a short partition makes
        the backend *suspect* without tripping failover.  A single
        non-network failure in the run snaps back to the plain
        ``down_after`` threshold.
        """
        with self._lock:
            self.probes += 1
            self.failures += 1
            self.consecutive_failures += 1
            self.last_failure_reason = str(reason)
            self.last_failure_kind = kind
            if kind == "network":
                self.network_failures += 1
                fatal = False   # a partitioned node may be fine
            else:
                self._run_all_network = False
            threshold = (self.network_down_after if self._run_all_network
                         else self.down_after)
            if fatal or self.consecutive_failures >= threshold:
                if self.state != DOWN:
                    self._transition(DOWN, reason)
                self._breaker_open_until = (
                    self.clock.now() + self.cooldown_seconds)
            elif self.state == HEALTHY:
                self._transition(SUSPECT, reason)
            elif self.state == DOWN:
                # A failed half-open probe re-opens the breaker.
                self._breaker_open_until = (
                    self.clock.now() + self.cooldown_seconds)

    def _transition(self, to_state, reason):
        self.transitions.append({
            "at": self.clock.now(),
            "from": self.state,
            "to": to_state,
            "reason": str(reason),
        })
        del self.transitions[:-TRANSITION_LOG_CAPACITY]
        self.state = to_state

    # -- gating --------------------------------------------------------------

    @property
    def allows_traffic(self):
        """May client requests be routed here?  (healthy or suspect)"""
        return self.state != DOWN

    @property
    def allows_probe(self):
        """May the monitor probe now?  Down backends are probed only
        half-open: after the breaker cooldown has elapsed."""
        if self.state != DOWN:
            return True
        until = self._breaker_open_until
        return until is None or self.clock.now() >= until

    def snapshot(self):
        with self._lock:
            return {
                "backend": self.backend_id,
                "state": self.state,
                "lag_segments": self.lag_segments,
                "consecutive_failures": self.consecutive_failures,
                "probes": self.probes,
                "failures": self.failures,
                "network_failures": self.network_failures,
                "last_failure": self.last_failure_reason,
                "last_failure_kind": self.last_failure_kind,
            }

    def __repr__(self):
        return ("BackendHealth(%r, %s, lag=%d, failures=%d)"
                % (self.backend_id, self.state, self.lag_segments,
                   self.consecutive_failures))
