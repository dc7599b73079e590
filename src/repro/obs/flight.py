"""Failover flight recorder: a bounded on-disk ring of recent spans and
events, dumped as a post-mortem bundle on demand.

The in-memory :class:`~repro.obs.trace.Tracer` ring answers "what just
happened in this process *while it is still alive*".  A failover is the
opposite case: the interesting node is dying, the interesting window is
the seconds *before* the trigger, and the operator arrives after the
fact.  :class:`FlightRecorder` closes that gap:

* it attaches to a hub's tracer as a **sink** (every emitted record is
  appended to a rotating chunk file under ``<dir>/<node_id>/``), so
  recent history survives on disk continuously, bounded by
  ``CHUNK_RECORDS × MAX_CHUNKS`` records per node — a ring of files
  instead of a ring of dicts;
* :func:`write_bundle` freezes the state of N recorders (plus the
  cluster's :class:`~repro.cluster.health.BackendHealth` transition
  logs) into one **bundle directory** — ``manifest.json``,
  ``health.json``, and per-node ``trace.jsonl`` — which
  ``python -m repro.obs.validate`` checks and
  ``python -m repro.obs.postmortem`` renders as a merged, clock-aligned
  timeline.

:meth:`~repro.cluster.replicaset.ReplicaSet` wires this in when given a
``flight_dir``: every failover (and every fatal backend error) triggers
a dump automatically.
"""

import io
import json
import os
import threading
import time

#: Records per chunk file before rotation.
CHUNK_RECORDS = 512
#: Chunk files retained per node (the on-disk ring bound).
MAX_CHUNKS = 8


class _JsonlRing:
    """A bounded ring of rotating JSONL chunk files in one directory."""

    def __init__(self, directory):
        self.directory = directory
        self.dropped_chunks = 0
        self._sequence = 0
        self._lines_in_chunk = 0
        self._handle = None
        os.makedirs(directory, exist_ok=True)

    def _chunk_path(self, sequence):
        return os.path.join(self.directory, "trace-%06d.jsonl" % sequence)

    def append(self, obj):
        if self._handle is None or self._lines_in_chunk >= CHUNK_RECORDS:
            self._rotate()
        self._handle.write(json.dumps(obj, sort_keys=True, default=str))
        self._handle.write("\n")
        self._lines_in_chunk += 1

    def _rotate(self):
        if self._handle is not None:
            self._handle.close()
        self._sequence += 1
        self._handle = io.open(self._chunk_path(self._sequence), "w",
                               encoding="utf-8")
        self._lines_in_chunk = 0
        stale = self._sequence - MAX_CHUNKS
        if stale >= 1:
            try:
                os.remove(self._chunk_path(stale))
                self.dropped_chunks += 1
            except OSError:
                pass

    def flush(self):
        if self._handle is not None:
            self._handle.flush()

    def lines(self):
        """Every retained line, oldest chunk first."""
        self.flush()
        out = []
        first = max(1, self._sequence - MAX_CHUNKS + 1)
        for sequence in range(first, self._sequence + 1):
            path = self._chunk_path(sequence)
            try:
                with io.open(path, "r", encoding="utf-8") as handle:
                    out.extend(line.rstrip("\n")
                               for line in handle if line.strip())
            except OSError:
                continue
        return out

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class FlightRecorder:
    """Continuously persist one hub's recent trace records.

    ``directory`` is the shared flight directory (each recorder writes
    under ``<directory>/<node_id>/``); ``observability`` is the hub
    whose tracer this recorder taps.  Recording starts immediately —
    provided the hub's tracer is *enabled*; the recorder never enables
    it itself (that cost decision stays with the owner).
    """

    def __init__(self, directory, node_id, observability):
        self.directory = directory
        self.node_id = node_id
        self.observability = observability
        self._traces = _JsonlRing(os.path.join(directory, node_id))
        self._lock = threading.Lock()
        self._closed = False
        observability.tracer.add_sink(self._on_record)

    # -- the tracer sink -----------------------------------------------------

    def _on_record(self, record):
        with self._lock:
            if self._closed:
                return
            self._traces.append(record)

    # -- reading/dumping -----------------------------------------------------

    def trace_jsonl(self):
        """The retained records as schema-valid JSONL (meta header
        first), ready for ``python -m repro.obs.validate``.

        Records are re-sorted by ``ts`` before export: sinks run
        outside the tracer's ring lock, so two racing emitters may land
        in the chunk files microseconds out of order.
        """
        with self._lock:
            meta = dict(self.observability.tracer.meta())
            meta["flight_chunks_dropped"] = self._traces.dropped_chunks
            # A flight capture is taken while the node runs: spans may
            # still be open and old chunks may have rotated away, so the
            # validator must not demand begin/end pairing.
            meta["live"] = True
            raw = self._traces.lines()
        records = []
        for line in raw:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue   # a torn line from a crashed writer
        records.sort(key=lambda record: record.get("ts", 0.0))
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True)
                     for record in records)
        return "\n".join(lines) + "\n"

    def dump_into(self, bundle_dir):
        """Write this node's ``trace.jsonl`` into ``bundle_dir/<node_id>/``;
        returns the node directory."""
        node_dir = os.path.join(bundle_dir, self.node_id)
        os.makedirs(node_dir, exist_ok=True)
        with io.open(os.path.join(node_dir, "trace.jsonl"), "w",
                     encoding="utf-8") as handle:
            handle.write(self.trace_jsonl())
        return node_dir

    def close(self):
        """Detach from the tracer and close the chunk files."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._traces.close()
        self.observability.tracer.remove_sink(self._on_record)


def write_bundle(bundle_dir, recorders, reason, health=None,
                 manifest_extra=None):
    """Freeze ``recorders`` into a post-mortem bundle directory.

    ``health`` maps backend id → a dict with at least ``state`` and
    ``transitions`` (what :class:`~repro.cluster.health.BackendHealth`
    exposes); ``manifest_extra`` merges extra keys (epoch, elected
    node, ...) into ``manifest.json``.  Returns ``bundle_dir``.
    """
    os.makedirs(bundle_dir, exist_ok=True)
    nodes = []
    for recorder in recorders:
        recorder.dump_into(bundle_dir)
        nodes.append(recorder.node_id)
    manifest = {
        "reason": str(reason),
        "wall_time": round(time.time(), 6),
        "nodes": nodes,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with io.open(os.path.join(bundle_dir, "manifest.json"), "w",
                 encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2, default=str)
    if health is not None:
        with io.open(os.path.join(bundle_dir, "health.json"), "w",
                     encoding="utf-8") as handle:
            json.dump(health, handle, sort_keys=True, indent=2,
                      default=str)
    return bundle_dir
