"""Headline concurrency bench: hundreds of clients against the server.

``CLIENTS`` client threads (default 120) fire a 90/10 read/write mix at
a :class:`repro.server.Server` over a file-backed database with an
:class:`~repro.query.admission.AdmissionController` attached.  Writers
are serialized (the engine is single-writer/multi-reader); a read runs
on its client's own thread, under the server's ``WORKERS``-slot bound,
through one of the server's pooled snapshot sessions.

Every read is checked for **snapshot consistency**: committed documents
carry known employee counts, so a read's match count must equal some
committed prefix's cumulative count — a torn or half-applied read shows
up as a count no commit ever produced.  The bench reports p50/p95/p99
read latency and writes ``BENCH_concurrent.json`` when run as a script::

    PYTHONPATH=src python benchmarks/bench_concurrent.py

CI gates only the violations and the client count.  p99 is reported, not
gated: it is the tail of 120 threads sharing a few cores, and it moves
with the host.  Six runs of one commit on a 2-core host gave p99
469–899 ms (p50 0.44–0.79 ms), and earlier runs on such a host spanned
232–512 ms.

Scale with ``BENCH_CLIENTS`` / ``BENCH_OPS`` (per client).
"""

import json
import os
import random
import threading
import time

from repro.core.database import XmlDatabase
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.query.admission import AdmissionController, QueryRejected
from repro.server import Server

CLIENTS = int(os.environ.get("BENCH_CLIENTS", "120"))
OPS_PER_CLIENT = int(os.environ.get("BENCH_OPS", "10"))
WORKERS = 8
PAGE_SIZE = 2048
READ_PATH = "//department/employee"


def _doc(employees):
    body = "".join("<employee><name>e%d</name></employee>" % i
                   for i in range(employees))
    return "<department>%s</department>" % body


def _quantile_ms(histogram, q):
    seconds = histogram.quantile(q)
    return 0.0 if seconds is None else seconds * 1e3


def run_storm(tmp_dir, clients=CLIENTS, ops_per_client=OPS_PER_CLIENT):
    """Returns the result dict; raises on any consistency violation."""
    path = os.path.join(tmp_dir, "concurrent.db")
    db = XmlDatabase.create(path, page_size=PAGE_SIZE, buffer_pages=128)
    rng = random.Random(20030305)
    total = 0
    valid_counts = {0}
    for _ in range(4):  # seed corpus
        n = rng.randrange(2, 6)
        db.add_document(_doc(n))
        total += n
        db.flush()
        valid_counts.add(total)
    db.attach_admission(AdmissionController(
        max_active=WORKERS, max_waiting=4 * clients, deadline=30.0))

    write_lock = threading.Lock()
    counts_lock = threading.Lock()
    violations = []
    rejected = [0]
    # Bucketed like the server's own latency histogram: the reported
    # percentiles are the interpolated estimates an operator would get
    # from /metrics, not exact order statistics over raw samples.
    read_hist = Histogram("bench_read_seconds", "Read latencies",
                          buckets=DEFAULT_LATENCY_BUCKETS)
    lat_lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)
    state = {"total": total}

    def client(index):
        crng = random.Random(7 * index + 1)
        barrier.wait()
        for op in range(ops_per_client):
            if crng.random() < 0.1:
                with write_lock:
                    n = crng.randrange(1, 5)
                    # Announce the new cumulative count *before* the
                    # commit lands: a reader may pin the commit the
                    # instant flush() returns, and must find its count
                    # already valid.
                    with counts_lock:
                        state["total"] += n
                        valid_counts.add(state["total"])
                    db.add_document(_doc(n))
                    db.flush()
            else:
                started = time.monotonic()
                try:
                    result = server.query(READ_PATH, timeout=60)
                except QueryRejected:
                    with lat_lock:
                        rejected[0] += 1
                    continue
                elapsed = time.monotonic() - started
                seen = len(result.matches)
                with counts_lock:
                    consistent = seen in valid_counts
                if not consistent:
                    violations.append((index, op, seen))
                read_hist.observe(elapsed)

    server = Server(db, workers=WORKERS, queue_depth=4 * clients)
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    with server:
        for thread in threads:
            thread.start()
        started = time.monotonic()
        barrier.wait()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started

    if violations:
        raise AssertionError("snapshot-consistency violations: %r"
                             % violations[:10])
    result = {
        "bench": "concurrent",
        "clients": clients,
        "server_workers": WORKERS,
        "ops_per_client": ops_per_client,
        "reads_completed": read_hist.count,
        "reads_rejected": rejected[0],
        "commits": db.commit_sequence,
        "violations": 0,
        "read_p50_ms": round(_quantile_ms(read_hist, 0.50), 3),
        "read_p95_ms": round(_quantile_ms(read_hist, 0.95), 3),
        "read_p99_ms": round(_quantile_ms(read_hist, 0.99), 3),
        "wall_seconds": round(wall, 3),
        "reads_per_second":
            round(read_hist.count / wall, 1) if wall else 0.0,
        "session_refreshes": server.stats.session_refreshes,
        "peak_queue": server.stats.peak_queue,
        "pool_latch_waits": db._context.pool.latch_waits,
        "snapshot_lag_final": db.metrics()["repro_snapshot_lag"],
    }
    versions = db._context.disk.versions
    assert versions.pin_count == 0, "leaked snapshot pins"
    result["retained_images_final"] = versions.retained_images
    db.close()
    return result


def test_concurrent_mixed_clients(tmp_path, benchmark):
    clients = min(CLIENTS, 120)
    result = benchmark.pedantic(
        lambda: run_storm(str(tmp_path), clients=clients,
                          ops_per_client=min(OPS_PER_CLIENT, 6)),
        rounds=1, iterations=1)
    print("\n=== Concurrent serving (%d clients, %d workers) ==="
          % (result["clients"], result["server_workers"]))
    print("reads %d (rejected %d)  commits %d  p50 %.2fms  p99 %.2fms"
          % (result["reads_completed"], result["reads_rejected"],
             result["commits"], result["read_p50_ms"],
             result["read_p99_ms"]))
    assert result["violations"] == 0
    assert result["clients"] >= 100
    assert result["reads_completed"] > 0
    assert result["read_p99_ms"] > 0.0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        outcome = run_storm(tmp_dir)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_concurrent.json")
    with open(out, "w") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print("wrote %s" % out)
