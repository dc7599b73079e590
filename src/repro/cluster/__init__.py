"""Self-healing replicated serving over the XR-tree storage engine.

The cluster layer composes the replication primitives (warm standbys
tailing the primary's commit-group archive) and the serving layer (the
server: reads on the caller's thread over pooled snapshot sessions)
into one fault-tolerant unit:

* :class:`~repro.cluster.replicaset.ReplicaSet` — owns the writable
  primary and N standbys, heartbeats them through per-backend
  ``healthy → suspect → down`` state machines
  (:class:`~repro.cluster.health.BackendHealth`), and on primary death
  runs the failover supervisor: fence → elect least-lagged → promote →
  re-point writes → rebuild survivors.
* :class:`~repro.cluster.client.ClusterClient` — the query surface:
  lag-aware routed reads with bounded retry/failover, optional hedging,
  and at-most-once writes acked only after the commit is archived.

Everything is observable as ``repro_cluster_*`` metrics and ``cluster.*``
trace spans on the set's shared hub; ``tests/test_cluster_failover.py``
and ``benchmarks/bench_cluster.py`` drive it through seeded fault
schedules.
"""

from repro.cluster.client import (
    ClusterClient,
    ClusterReadError,
    ClusterResult,
    ClusterWriteError,
    WriteAck,
)
from repro.cluster.health import DOWN, HEALTHY, SUSPECT, BackendHealth
from repro.cluster.replicaset import (
    ClusterError,
    NoBackendAvailable,
    NoPrimaryError,
    PrimaryNode,
    ReplicaSet,
    StandbyNode,
)

__all__ = [
    "BackendHealth",
    "ClusterClient",
    "ClusterError",
    "ClusterReadError",
    "ClusterResult",
    "ClusterWriteError",
    "DOWN",
    "HEALTHY",
    "NoBackendAvailable",
    "NoPrimaryError",
    "PrimaryNode",
    "ReplicaSet",
    "StandbyNode",
    "SUSPECT",
    "WriteAck",
]
