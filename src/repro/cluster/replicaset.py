"""ReplicaSet: one writable primary, N warm standbys, and a supervisor
that detects failure and heals the set.

The composition layer over PR 5's replication primitives and PR 6's
server: the **primary** is an archive-durability
:class:`~repro.core.database.XmlDatabase` fronted by a
:class:`~repro.server.Server` (snapshot sessions, admission, metrics);
each **standby** is a :class:`~repro.storage.replication.StandbyReplica`
tailing the primary's segment archive.  The replica set owns

* **health monitoring** — :meth:`tick` runs one heartbeat round: it
  pings the primary, tails + probes every standby, recomputes per-backend
  lag against the acked commit sequence, and drives each backend's
  ``healthy → suspect → down`` state machine
  (:class:`~repro.cluster.health.BackendHealth`, with a circuit breaker
  gating probes of down backends).  :meth:`start` runs ticks on a
  background thread; tests call :meth:`tick` directly for determinism.

* **the failover supervisor** — when the primary goes down (probe
  failures, or a writer reporting a dead disk), :meth:`failover`
  **fences** the old primary (stops its server, releases its descriptors
  without committing), **elects** the least-lagged promotable standby,
  drives :meth:`~repro.storage.replication.StandbyReplica.promote`
  (reusing its divergence detection), fronts the promoted database with
  a fresh server, re-points writes by swapping the topology view and
  bumping the **epoch**, and finally re-seeds the surviving standbys
  from a hot backup of the new primary — the same snapshot re-seed
  retention uses — so the set returns to full strength.

* **read candidates** — :meth:`read_candidates` is the routing surface
  :class:`~repro.cluster.client.ClusterClient` consumes: backends whose
  health admits traffic and whose applied sequence is within the
  staleness bound of the acked head.

Everything is surfaced as ``repro_cluster_*`` metrics and ``cluster.*``
trace spans/events on the set's observability hub.  The hub is named
``cluster`` and every backend gets its own per-node hub (``node-0``,
``node-1``, ...), so a failover — which runs under one fresh trace id —
produces fence/elect/promote/rebuild spans stamped with the node that
did the work, joinable across hubs by that id.  Pass ``flight_dir`` to
run a :class:`~repro.obs.flight.FlightRecorder` per hub: every failover
(and every fatal backend error) then dumps a post-mortem bundle under
it automatically (see ``docs/OBSERVABILITY.md``).
"""

import os
import shutil
import threading

from repro.cluster.health import DOWN, HEALTHY, BackendHealth
from repro.net.errors import is_network_error
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, write_bundle
from repro.obs.trace import new_trace_id, trace_context
from repro.server import Server
from repro.storage.errors import (DiskFullError, StorageError,
                                  TransientIOError, is_disk_full_error)
from repro.storage.faults import CrashPoint
from repro.storage.replication import LocalDirShipper
from repro.storage.retention import CheckpointManager
from repro.storage.timemodel import SystemClock

#: Default bound, in commit groups, on how far behind the acked head a
#: backend may be and still serve reads.
DEFAULT_STALENESS_BOUND = 1

#: Default heartbeat interval for the background monitor thread.
DEFAULT_TICK_INTERVAL = 0.02

#: Segments one heartbeat applies per standby, so a far-behind standby
#: cannot hold the monitor for its whole backlog.
TAIL_LIMIT = 16


class ClusterError(Exception):
    """Cluster-level failures (no primary, no electable standby, ...)."""


class NoPrimaryError(ClusterError):
    """There is currently no writable primary (failover in progress)."""


class NoBackendAvailable(ClusterError):
    """No backend can serve this request within its staleness bound."""


def is_fatal_backend_error(exc, disk=None):
    """Does ``exc`` mean the backend process/disk is *gone* (vs. merely
    failing this request)?  Fatal errors skip the suspect ladder."""
    if is_network_error(exc):
        # A partitioned backend may be perfectly healthy — a network
        # fault must walk the (network) ladder, never skip it.
        return False
    if is_disk_full_error(exc):
        # A full volume is a degradation, not a death: the backend
        # keeps serving reads and recovers in place once space returns,
        # so failing over would trade a writable-later primary for a
        # lagging one.
        return False
    if isinstance(exc, CrashPoint):
        return True
    if disk is not None and getattr(disk, "dead", False):
        return True
    return isinstance(exc, StorageError) and "dead" in str(exc)


class PrimaryNode:
    """The writable backend: a database plus its serving front end."""

    role = "primary"

    def __init__(self, node_id, database, server):
        self.id = node_id
        self.database = database
        self.server = server
        self.fenced = False
        self.lock = threading.RLock()

    @property
    def applied_sequence(self):
        return self.database.commit_sequence

    def probe(self):
        if self.fenced:
            raise ClusterError("node %s is fenced" % self.id)
        return self.database.ping()

    def query(self, path, timeout=None, runtime=None):
        if self.fenced:
            raise ClusterError("node %s is fenced" % self.id)
        return self.server.query(path, timeout=timeout, runtime=runtime)


class StandbyNode:
    """A read-only backend tailing the primary's archive."""

    role = "standby"

    #: How long a read waits for the node lock before degrading.  The
    #: monitor holds the lock across catch_up, which over a slow or
    #: partitioned link can take its full retry budget — a client read
    #: must fail over to another backend instead of queueing behind it.
    lock_timeout = 1.0

    def __init__(self, node_id, replica):
        self.id = node_id
        self.replica = replica
        self.lock = threading.RLock()

    @property
    def applied_sequence(self):
        return self.replica.applied_sequence

    def query(self, path, timeout=None, runtime=None):
        # Standby reads are serialized per node: the replica's lazily
        # reopened query database is not a concurrent engine, and the
        # monitor closes it when new segments apply.
        wait = self.lock_timeout if timeout is None else min(
            timeout, self.lock_timeout)
        if not self.lock.acquire(timeout=wait):
            raise TransientIOError(
                "standby %s busy (replication holds its lock)" % self.id)
        try:
            return self.replica.query(path, runtime=runtime)
        finally:
            self.lock.release()


class _View:
    """An immutable topology snapshot, swapped atomically on failover."""

    __slots__ = ("epoch", "primary", "standbys")

    def __init__(self, epoch, primary, standbys):
        self.epoch = epoch
        self.primary = primary
        self.standbys = tuple(standbys)

    @property
    def nodes(self):
        if self.primary is None:
            return self.standbys
        return (self.primary,) + self.standbys


class ReplicaSet:
    """One primary + N standbys with health monitoring and self-healing.

    ``primary`` is an open (archive-durability, file-backed)
    :class:`~repro.core.database.XmlDatabase`; ``standbys`` are
    :class:`~repro.storage.replication.StandbyReplica` instances tailing
    its archive.

    The replica set owns the primary's :class:`~repro.server.Server`
    (created and started here) and, on :meth:`close`, every database and
    replica it still holds.
    """

    def __init__(self, primary, standbys=(), workers=2,
                 staleness_bound=DEFAULT_STALENESS_BOUND, down_after=3,
                 cooldown_seconds=0.25, network_down_after=None,
                 shipper_factory=None, observability=None, clock=None,
                 flight_dir=None, retention_policy=None):
        self.staleness_bound = staleness_bound
        self.down_after = down_after
        self.cooldown_seconds = cooldown_seconds
        #: Consecutive *network* failures before a backend goes down —
        #: larger than ``down_after`` so a partition blip stays a blip.
        #: None picks the BackendHealth default (2 × down_after).
        self.network_down_after = network_down_after
        #: (primary_database, page_size) -> shipper over that primary's
        #: archive, used when a failover moves the survivors onto the new
        #: primary.  None ships from the archive directory itself
        #: (LocalDirShipper); pass one to re-seed standbys onto a
        #: :class:`~repro.net.shipper.SocketShipper` (or any other
        #: transport) instead.
        self.shipper_factory = shipper_factory
        self.workers = workers
        self.clock = clock if clock is not None else SystemClock()
        self.observability = (observability if observability is not None
                              else Observability())
        if self.observability.node_id is None:
            self.observability.tracer.node_id = "cluster"
        self.flight_dir = flight_dir
        self._hubs = {"cluster": self.observability}
        self._recorders = {}
        self._bundle_counter = 0
        server = Server(primary, workers=workers).start()
        nodes = [PrimaryNode("node-0", primary, server)]
        self._adopt_hub("node-0", primary.observability)
        for index, replica in enumerate(standbys):
            node = StandbyNode("node-%d" % (index + 1), replica)
            nodes.append(node)
            hub = getattr(replica, "observability", None)
            if hub is None:
                hub = replica.attach_observability(
                    Observability(node_id=node.id))
            self._adopt_hub(node.id, hub)
        self._view = _View(1, nodes[0], nodes[1:])
        self._acked = primary.commit_sequence
        self._ack_lock = threading.Lock()
        self._health = {}
        for node in nodes:
            self._health[node.id] = self._new_health(node.id)
        self._failover_lock = threading.RLock()
        self._tick_lock = threading.Lock()
        self._monitor = None
        self._monitor_stop = threading.Event()
        self._wake = threading.Event()
        self._rr = 0
        self.last_failover = None
        self.closed = False
        #: :class:`~repro.storage.retention.RetentionPolicy` driving
        #: checkpointed archive pruning on the primary (None = retention
        #: off: the archive grows without bound, as before).
        self.retention_policy = retention_policy
        self._retention = None
        self._degrade_handled = False
        #: Survivors of the last failover whose shipper still points at
        #: the dead primary's archive (cleared by their re-seed).
        self._rehome = set()
        self._init_metrics()
        if retention_policy is not None:
            self._attach_retention(primary)
        if flight_dir is not None:
            for recorder_id, hub in list(self._hubs.items()):
                self._start_recorder(recorder_id, hub)

    def _adopt_hub(self, node_id, hub):
        """Track a backend's hub under ``node_id``: name it, and start a
        flight recorder for it when flight recording is on."""
        if hub.node_id is None:
            hub.tracer.node_id = node_id
        self._hubs[node_id] = hub
        if self.flight_dir is not None:
            self._start_recorder(node_id, hub)
        return hub

    def _start_recorder(self, recorder_id, hub):
        if recorder_id in self._recorders:
            return
        # Flight recording is opt-in and needs records to record: the
        # tracer cost was accepted by passing flight_dir.
        hub.tracer.enable()
        self._recorders[recorder_id] = FlightRecorder(
            self.flight_dir, recorder_id, hub)

    def _attach_retention(self, database):
        """Build and attach a :class:`CheckpointManager` over
        ``database``'s archive (re-run per failover: the promoted
        primary's archive is a new stream needing its own checkpoints)."""
        archive = database.archive
        if archive is None:
            self._retention = None
            return None
        manager = CheckpointManager(archive, policy=self.retention_policy)
        self._retention = database.attach_retention(manager)
        return manager

    def _new_health(self, node_id):
        return BackendHealth(
            node_id, down_after=self.down_after,
            cooldown_seconds=self.cooldown_seconds,
            network_down_after=self.network_down_after, clock=self.clock)

    def _init_metrics(self):
        m = self.observability.metrics
        self._m_probe_failures = m.counter(
            "repro_cluster_probe_failures_total", "Backend probes failed")
        self._m_failovers = m.counter(
            "repro_cluster_failovers_total", "Completed failovers")
        self._m_failover_failures = m.counter(
            "repro_cluster_failover_failures_total",
            "Failover attempts that could not complete")
        self._m_fencings = m.counter(
            "repro_cluster_fencings_total", "Primaries fenced")
        self._m_network_flaps = m.counter(
            "repro_cluster_network_flaps_total",
            "Backend failures classified as network faults (transport "
            "errors that walk the network ladder, not straight to down)")
        self._m_epoch = m.gauge(
            "repro_cluster_epoch", "Topology epoch (bumped per failover)")
        self._m_epoch.set(1)
        self._m_failover_seconds = m.histogram(
            "repro_cluster_failover_seconds",
            "Failover duration: detection to writes re-pointed")
        self._m_reseeds = m.counter(
            "repro_cluster_reseeds_total",
            "Standbys re-seeded from a primary snapshot (retention "
            "outran their tail, or a failover moved the stream)")
        self._m_reseed_failures = m.counter(
            "repro_cluster_reseed_failures_total",
            "Snapshot re-seed attempts that failed (retried next tick)")
        self._m_lag_budget_marks = m.counter(
            "repro_cluster_lag_budget_marks_total",
            "Standbys marked for re-seed after exhausting the "
            "max_standby_lag retention budget")
        self._m_disk_full_degradations = m.counter(
            "repro_cluster_disk_full_degradations_total",
            "Primary read-only degradations (a commit hit ENOSPC)")
        self._m_disk_full_recoveries = m.counter(
            "repro_cluster_disk_full_recoveries_total",
            "Primary degradations healed (space freed, commit retried)")

    # -- topology ------------------------------------------------------------

    @property
    def view(self):
        return self._view

    @property
    def epoch(self):
        return self._view.epoch

    @property
    def acked_sequence(self):
        """Highest commit sequence a writer has been told is durable."""
        return self._acked

    def ack(self, sequence):
        """Record a successfully flushed commit (monotonic)."""
        with self._ack_lock:
            if sequence > self._acked:
                self._acked = sequence

    def health_of(self, node_id):
        return self._health[node_id]

    def primary_for_write(self):
        """The current ``(epoch, PrimaryNode)``, for one write attempt."""
        view = self._view
        node = view.primary
        if node is None or node.fenced:
            raise NoPrimaryError(
                "no writable primary (epoch %d)" % view.epoch)
        return view.epoch, node

    def read_candidates(self, staleness_bound=None):
        """Backends fit to serve a read, best first.

        A backend qualifies when its health admits traffic **and** its
        applied sequence is within ``staleness_bound`` commit groups of
        the acked head (checked at dispatch time, so a stalled replica
        that still answers probes is excluded the moment it falls too far
        behind).  Healthy backends come before suspect ones, less lag
        first; equals rotate round-robin.
        """
        bound = (self.staleness_bound if staleness_bound is None
                 else staleness_bound)
        acked = self._acked
        ranked = []
        for node in self._view.nodes:
            if getattr(node, "fenced", False):
                continue
            health = self._health.get(node.id)
            if health is None or not health.allows_traffic:
                continue
            lag = max(0, acked - node.applied_sequence)
            if lag > bound:
                continue
            ranked.append((0 if health.state == HEALTHY else 1, lag, node))
        self._rr += 1
        offset = self._rr
        ranked.sort(key=lambda item: (item[0], item[1]))
        nodes = [node for _state, _lag, node in ranked]
        if len(nodes) > 1:
            # Rotate equals so one healthy backend does not take every read.
            pivot = offset % len(nodes)
            nodes = nodes[pivot:] + nodes[:pivot]
            nodes.sort(key=lambda n: max(0, acked - n.applied_sequence))
        return nodes

    def report_backend_failure(self, node_id, exc, fatal=None):
        """A client saw ``exc`` talking to ``node_id``; feed the health
        machine and wake the monitor (fast detection beats waiting one
        heartbeat)."""
        if node_id not in self._health:
            return
        if is_disk_full_error(exc):
            # Degradation, not failure: the backend still serves reads
            # and heals in place.  Feeding the health ladder here would
            # eventually fail over to a standby of the *same* full
            # volume's history — strictly worse than waiting for the
            # emergency prune / freed space.
            self._wake.set()
            return
        if fatal is None:
            fatal = is_fatal_backend_error(exc)
        self._record_failure(node_id, exc, fatal)
        if fatal and self._recorders:
            # A dead disk/process is exactly the moment the on-disk ring
            # exists for: freeze the evidence before healing overwrites it.
            try:
                self.dump_flight("fatal backend error on %s: %s"
                                 % (node_id, exc))
            except OSError:
                pass
        self._wake.set()

    # -- heartbeat -----------------------------------------------------------

    def tick(self):
        """One heartbeat round; returns a status summary dict.

        Probes the primary, tails + probes each standby, runs the
        retention round, and — when the primary is down — runs failover.
        Rounds run one at a time: a round started beside the monitor's
        waits for it, rather than probing a view whose standby the other
        round has just promoted (tailing a promoted node fails, and enough
        such failures would take the new primary down).
        """
        with self._tick_lock:
            view = self._view
            if view.primary is not None:
                self._probe_primary(view.primary)
            for node in view.standbys:
                self._tail_and_probe(node)
            self._retention_tick()
            primary = self._view.primary
            if primary is not None:
                health = self._health[primary.id]
                if health.state == DOWN:
                    try:
                        self.failover(
                            "primary %s is down: %s"
                            % (primary.id, health.last_failure_reason))
                    except ClusterError:
                        pass  # no promotable standby yet; retried next tick
            return self.status()

    def _probe_primary(self, node):
        health = self._health[node.id]
        if not health.allows_probe:
            return
        try:
            with node.lock:
                sequence = node.probe()
        except BaseException as exc:
            self._m_probe_failures.inc()
            self._record_failure(
                node.id, exc, is_fatal_backend_error(
                    exc, disk=node.database._context.disk))
            return
        health.record_success(lag_segments=0)
        if sequence is not None:
            # Everything at or below the primary's commit sequence is
            # durable, whether or not it came through a ClusterClient.
            self.ack(sequence)

    def _tail_and_probe(self, node):
        health = self._health[node.id]
        if not health.allows_probe:
            return
        try:
            with node.lock:
                node.replica.catch_up(limit=TAIL_LIMIT)
        except BaseException as exc:
            self._m_probe_failures.inc()
            self._record_failure(node.id, exc, isinstance(exc, CrashPoint))
            return
        health.record_success(
            lag_segments=max(0, self._acked - node.applied_sequence))

    def _record_failure(self, node_id, exc, fatal):
        """Classify one backend failure (a probe's, or one a client
        reported), feed its health machine and emit a
        ``cluster.backend-failure`` event.  A transport fault — directly, or as the cause of a
        :class:`~repro.storage.errors.ReplicationError` whose retries ran
        out — is kind ``"network"``."""
        kind = "network" if is_network_error(exc) else None
        if kind == "network":
            self._m_network_flaps.inc()
        self._health[node_id].record_failure(exc, fatal=fatal, kind=kind)
        self.observability.tracer.event(
            "cluster.backend-failure", backend=node_id, error=str(exc),
            fatal=bool(fatal), failure_kind=kind)

    # -- retention & disk pressure --------------------------------------------

    def _retention_tick(self):
        """One retention round on the primary: heal disk-full, re-seed
        marked standbys, checkpoint on cadence, prune to the shared
        horizon.

        The horizon is ``min(checkpoint, standby floor, PITR window)``;
        a standby contributes its applied sequence to the floor only
        while it is inside the ``max_standby_lag`` budget — beyond it
        the standby is marked for snapshot re-seed and retention stops
        waiting for it (bounded disks beat unbounded patience).  The
        re-seed pass runs with retention off too: it is also how a
        failover survivor whose first re-seed failed gets its retry.
        """
        view = self._view
        primary = view.primary
        if primary is None or primary.fenced:
            return
        self._heal_disk_full(primary)
        manager = self._retention
        head = primary.database.commit_sequence
        budget = (manager.policy.max_standby_lag if manager is not None
                  else None)
        for node in view.standbys:
            replica = node.replica
            if (not replica.needs_reseed and budget is not None
                    and head - node.applied_sequence > budget):
                replica.needs_reseed = True
                self._m_lag_budget_marks.inc()
            if replica.needs_reseed:
                self._reseed_standby(node, primary)
        if manager is None:
            return
        floor = self._standby_floor()
        try:
            manager.maybe_checkpoint(primary.database, head=head)
            manager.prune(standby_floor=floor)
        except DiskFullError:
            # Checkpointing needs space too: free what the horizon
            # already allows and retry on the next tick.
            manager.emergency_prune(standby_floor=floor)
        except Exception as exc:
            # The primary died under the checkpoint (hot backup reads
            # the live disk) — feed the health ladder and let the next
            # monitor pass fail over.
            self.report_backend_failure(
                primary.id, exc, fatal=is_fatal_backend_error(exc))

    def _standby_floor(self):
        """Lowest applied sequence among standbys still tailing (one
        marked for re-seed holds nothing back); None when there is none."""
        applied = [node.applied_sequence for node in self._view.standbys
                   if not node.replica.needs_reseed]
        return min(applied) if applied else None

    def _heal_disk_full(self, primary):
        """Drive the read-only degradation ladder on the primary.

        On the first tick of an episode: emergency-prune the archive to
        the safe floor (the one space we own that can be freed without
        losing acked commits).  Every tick after: retry the stuck
        commit; success flips the database writable again.
        """
        database = primary.database
        if database.writable:
            self._degrade_handled = False
            return
        if not self._degrade_handled:
            self._degrade_handled = True
            self._m_disk_full_degradations.inc()
            self._emergency_prune()
        try:
            database.flush()
        except DiskFullError:
            return   # still full; next tick retries
        except Exception as exc:
            # A degraded primary can still die outright (disk crash
            # mid-retry).  Hand that to the health ladder — the next
            # monitor pass fails over — instead of blowing up tick().
            self.report_backend_failure(
                primary.id, exc,
                fatal=is_fatal_backend_error(exc))
            return
        self._m_disk_full_recoveries.inc()

    def _emergency_prune(self):
        """Prune everything the checkpoint + standby floor allow,
        ignoring the PITR window; returns segments freed."""
        if self._retention is None:
            return 0
        return self._retention.emergency_prune(
            standby_floor=self._standby_floor())

    def _reseed_standby(self, node, primary):
        """Snapshot re-seed one standby: hot-backup the primary, restore
        it over the replica, resume tailing from the backup's sequence.

        The one way a standby rejoins the stream — after retention
        outran its tail, and after a failover moved the stream to a new
        timeline (a survivor's shipper is first pointed at the new
        primary's archive).  Failure leaves ``needs_reseed`` set and the
        next tick retries."""
        replica = node.replica
        backup_dir = replica.path + ".reseed"
        try:
            if os.path.exists(backup_dir):
                shutil.rmtree(backup_dir)
            primary.database.hot_backup(backup_dir)
            with node.lock:
                if node.id in self._rehome:
                    shipper = self._shipper_for(primary.database,
                                                replica.page_size)
                    replica.shipper, old = shipper, replica.shipper
                    old.close()
                replica.reseed_from(backup_dir)
        except BaseException:
            self._m_reseed_failures.inc()
            return
        finally:
            shutil.rmtree(backup_dir, ignore_errors=True)
        self._health[node.id] = self._new_health(node.id)
        self._m_reseeds.inc()
        if node.id in self._rehome:
            self._rehome.discard(node.id)
            self.last_failover["rebuilt"] += 1

    def _shipper_for(self, database, page_size):
        """A shipper over ``database``'s archive."""
        if self.shipper_factory is not None:
            return self.shipper_factory(database, page_size)
        return LocalDirShipper(database.archive.directory, page_size)

    # -- failover ------------------------------------------------------------

    def failover(self, reason):
        """Fence the primary, promote the best standby, re-point writes.

        Single-flight: concurrent callers (monitor tick plus a writer
        reporting the same death) collapse into one transition.  Returns
        the new epoch.  Raises :class:`ClusterError` when no standby is
        promotable — the set then has **no** primary and the next tick
        retries (a down standby may heal through its circuit breaker).
        """
        with self._failover_lock:
            view = self._view
            old_primary = view.primary
            if old_primary is None or getattr(old_primary, "_failed_over",
                                              False):
                return view.epoch
            detected_at = self.clock.now()
            # One fresh trace id covers the whole transition: every span
            # below — including replica.promote on the elected node's own
            # hub — carries it, so the post-mortem can stitch the
            # fence → elect → promote → rebuild chain across nodes.
            trace_id = new_trace_id()
            with trace_context(trace_id):
                try:
                    new_epoch = self._failover_traced(
                        view, old_primary, detected_at, reason, trace_id)
                finally:
                    if self._recorders:
                        self.dump_flight("failover: %s" % reason,
                                         trace_id=trace_id)
            return new_epoch

    def _failover_traced(self, view, old_primary, detected_at, reason,
                         trace_id):
        tracer = self.observability.tracer
        with tracer.span("cluster.failover", epoch=view.epoch,
                         reason=str(reason)):
            with tracer.span("cluster.fence", backend=old_primary.id):
                self._fence(old_primary)
            with tracer.span("cluster.elect"):
                elected = self._elect(view)
            if elected is None:
                self._m_failover_failures.inc()
                # Leave a headless view: reads may continue from
                # standbys within their staleness bound.
                self._view = _View(view.epoch, None,
                                   view.standbys)
                old_primary._failed_over = True
                raise ClusterError(
                    "failover: no promotable standby "
                    "(all down or none attached)")
            with tracer.span("cluster.promote", backend=elected.id):
                with elected.lock:
                    promoted_db = elected.replica.promote()
                server = Server(promoted_db, workers=self.workers).start()
            new_primary = PrimaryNode(elected.id, promoted_db, server)
            survivors = [node for node in view.standbys
                         if node is not elected]
            new_epoch = view.epoch + 1
            self._health[elected.id] = self._new_health(elected.id)
            self.ack(max(self._acked, promoted_db.commit_sequence))
            # Writes re-point here: the old epoch's view is gone.
            self._view = _View(new_epoch, new_primary, survivors)
            old_primary._failed_over = True
            # The promoted database is a new process-local hub; adopt it
            # under an epoch-qualified name (its standby incarnation
            # keeps the plain node id and its recorded history).
            self._adopt_hub("%s-e%d" % (elected.id, new_epoch),
                            promoted_db.observability)
            if self.retention_policy is not None:
                # The promoted archive is a fresh stream on a new
                # timeline: it needs its own checkpoints before anything
                # on it may be pruned (the old manager died with the
                # fenced primary).
                self._degrade_handled = False
                self._attach_retention(promoted_db)
            elapsed = self.clock.now() - detected_at
            self._m_failovers.inc()
            self._m_failover_seconds.observe(elapsed)
            self._m_epoch.set(new_epoch)
            self.last_failover = {
                "epoch": new_epoch,
                "reason": str(reason),
                "detected_at": detected_at,
                "elected": elected.id,
                "promoted_sequence": promoted_db.commit_sequence,
                "duration_seconds": elapsed,
                "trace_id": trace_id,
                "rebuilt": 0,
            }
            # Heal the set: survivors tail the dead timeline and can
            # only fall behind — re-seed each from the new primary, the
            # way retention re-seeds an outrun standby.  One whose
            # re-seed fails stays marked, and the next tick retries it.
            self._rehome = {node.id for node in survivors}
            with tracer.span("cluster.rebuild", epoch=new_epoch):
                for node in survivors:
                    node.replica.needs_reseed = True
                    self._reseed_standby(node, new_primary)
        return new_epoch

    def _fence(self, node):
        """Stop the old primary serving and release its descriptors
        without letting it commit anything further."""
        node.fenced = True
        self._m_fencings.inc()
        try:
            node.server.stop()
        except BaseException:
            pass  # in-flight reads on a dead disk may fail on their way out
        try:
            node.database.abandon()
        except BaseException:
            pass

    def _elect(self, view):
        """The least-lagged standby whose health admits traffic (or any
        standby at all when every one is down — a lagging primary beats
        none).  A standby awaiting re-seed is never elected: it cannot
        tail, and a failover survivor's file may be a stale timeline."""
        standbys = [node for node in view.standbys
                    if not node.replica.needs_reseed]
        candidates = [node for node in standbys
                      if self._health[node.id].allows_traffic]
        if not candidates:
            candidates = [node for node in standbys
                          if not self._health[node.id].allows_traffic
                          and not getattr(node.replica, "promoted", False)]
            candidates = [node for node in candidates
                          if not getattr(node.replica._disk, "dead", False)]
        if not candidates:
            return None
        return max(candidates, key=lambda node: node.applied_sequence)

    # -- background monitor ----------------------------------------------------

    def start(self, interval=DEFAULT_TICK_INTERVAL):
        """Run :meth:`tick` on a background thread every ``interval``
        seconds (sooner when a client reports a failure); returns self."""
        if self._monitor is not None:
            return self
        self._monitor_stop.clear()

        def loop():
            while not self._monitor_stop.is_set():
                try:
                    self.tick()
                except Exception:
                    pass  # the monitor must survive anything a tick hits
                self._wake.wait(interval)
                self._wake.clear()

        self._monitor = threading.Thread(
            target=loop, name="repro-cluster-monitor", daemon=True)
        self._monitor.start()
        return self

    def stop_monitor(self):
        if self._monitor is None:
            return
        self._monitor_stop.set()
        self._wake.set()
        self._monitor.join()
        self._monitor = None

    # -- introspection ---------------------------------------------------------

    def dump_flight(self, reason, trace_id=None):
        """Freeze every flight recorder into one post-mortem bundle.

        Returns the bundle directory (``<flight_dir>/bundle-NNN``), or
        None when flight recording is off.  Includes every backend's
        :class:`~repro.cluster.health.BackendHealth` state *and*
        transition log — the piece a trace alone cannot show.
        """
        if not self._recorders:
            return None
        self._bundle_counter += 1
        bundle_dir = os.path.join(
            self.flight_dir, "bundle-%03d" % self._bundle_counter)
        health = {}
        for node_id, backend_health in self._health.items():
            entry = backend_health.snapshot()
            entry["transitions"] = list(backend_health.transitions)
            health[node_id] = entry
        extra = {"epoch": self._view.epoch}
        if trace_id is not None:
            extra["trace_id"] = trace_id
        write_bundle(bundle_dir, list(self._recorders.values()), reason,
                     health=health, manifest_extra=extra)
        return bundle_dir

    def serve_ops(self, host="127.0.0.1", port=0):
        """A started :class:`~repro.obs.ops.OpsServer` over this set."""
        from repro.obs.ops import OpsServer

        return OpsServer(self, host=host, port=port).start()

    def status(self):
        """One nested dict describing the whole set (for operators/tests)."""
        view = self._view
        backends = []
        for node in view.nodes:
            health = self._health.get(node.id)
            entry = {
                "id": node.id,
                "role": node.role,
                "applied_sequence": node.applied_sequence,
                "lag": max(0, self._acked - node.applied_sequence),
            }
            if node.role == "standby":
                entry["needs_reseed"] = node.replica.needs_reseed
            if health is not None:
                entry.update(health.snapshot())
            backends.append(entry)
        return {
            "epoch": view.epoch,
            "acked_sequence": self._acked,
            "primary": view.primary.id if view.primary else None,
            "writable": (view.primary.database.writable
                         if view.primary else False),
            "backends": backends,
            "retention": (self._retention.stats.snapshot()
                          if self._retention is not None else None),
            "last_failover": self.last_failover,
        }

    def metrics_text(self):
        return self.observability.render_prometheus()

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Stop the monitor and every node this set still owns."""
        if self.closed:
            return
        self.closed = True
        self.stop_monitor()
        for recorder in self._recorders.values():
            try:
                recorder.close()
            except OSError:
                pass
        self._recorders = {}
        view = self._view
        self._view = _View(view.epoch, None, ())
        if view.primary is not None and not view.primary.fenced:
            try:
                view.primary.server.stop()
                view.primary.database.close()
            except BaseException:
                try:
                    view.primary.database.abandon()
                except BaseException:
                    pass
        for node in view.standbys:
            try:
                node.replica.close()
            except BaseException:
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
