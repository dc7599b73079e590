"""Render a flight-recorder bundle as one merged, clock-aligned timeline.

A bundle (see :mod:`repro.obs.flight`) holds one ``trace.jsonl`` per
node, each timestamped on that node's private monotonic clock.  The v2
``trace-meta`` header carries ``wall_epoch`` — wall-clock seconds at
tracer creation — so every record can be placed on one shared axis::

    absolute = wall_epoch + ts

``python -m repro.obs.postmortem <bundle_dir>`` prints the merged
timeline (oldest first, relative to the first record), one line per
record with the emitting node, the trace id joining cross-node work,
and the span fields — the fence → elect → promote → rebuild chain of a
failover reads top to bottom across every node that took part, followed
by each backend's health-state transitions.

Library surface: :func:`load_bundle`, :func:`merge_timeline`,
:func:`render` — what the tests and CI smoke drive directly.
"""

import json
import os
import sys


def load_bundle(bundle_dir):
    """Read a bundle directory into one dict.

    Returns ``{"manifest": ..., "health": ... or None,
    "nodes": {node_id: {"meta": header, "records": [...]}}}``.
    Raises :class:`FileNotFoundError` on a directory without a
    manifest.
    """
    with open(os.path.join(bundle_dir, "manifest.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    health = None
    health_path = os.path.join(bundle_dir, "health.json")
    if os.path.exists(health_path):
        with open(health_path, encoding="utf-8") as handle:
            health = json.load(handle)
    nodes = {}
    for node_id in manifest.get("nodes", []):
        trace_path = os.path.join(bundle_dir, node_id, "trace.jsonl")
        if not os.path.exists(trace_path):
            continue
        records = []
        with open(trace_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        meta = (records[0] if records
                and records[0].get("kind") == "trace-meta" else {})
        body = records[1:] if meta else records
        nodes[node_id] = {"meta": meta, "records": body}
    return {"manifest": manifest, "health": health, "nodes": nodes}


def merge_timeline(bundle):
    """Every node's records on one absolute axis, oldest first.

    Each returned record is a copy with ``abs`` (wall-clock seconds)
    and ``node`` (falling back to the bundle directory name when the
    record itself carries none) added.
    """
    merged = []
    for node_id, data in bundle["nodes"].items():
        epoch = data["meta"].get("wall_epoch", 0.0)
        for record in data["records"]:
            entry = dict(record)
            entry["abs"] = epoch + record.get("ts", 0.0)
            entry.setdefault("node", node_id)
            merged.append(entry)
    merged.sort(key=lambda entry: entry["abs"])
    return merged


def _fields_text(record):
    fields = record.get("fields") or {}
    parts = []
    if record.get("trace"):
        parts.append("trace=%s" % record["trace"])
    if record.get("attempt"):
        parts.append("attempt=%d" % record["attempt"])
    if record.get("dur") is not None:
        parts.append("dur=%.6fs" % record["dur"])
    parts.extend("%s=%s" % (key, fields[key]) for key in sorted(fields))
    return " ".join(parts)


def render(bundle, trace_id=None, limit=None):
    """The human-readable post-mortem text for one loaded bundle.

    ``trace_id`` restricts the timeline to one trace; ``limit`` keeps
    only the newest N records (the manifest and health sections always
    print in full).
    """
    manifest = bundle["manifest"]
    lines = []
    lines.append("== post-mortem: %s ==" % manifest.get("reason", "?"))
    for key in sorted(manifest):
        if key not in ("reason", "nodes"):
            lines.append("   %s: %s" % (key, manifest[key]))
    lines.append("   nodes: %s" % ", ".join(manifest.get("nodes", [])))

    merged = merge_timeline(bundle)
    if trace_id is not None:
        merged = [record for record in merged
                  if record.get("trace") == trace_id]
    total = len(merged)
    if limit is not None and total > limit:
        lines.append("   (showing newest %d of %d records)"
                     % (limit, total))
        merged = merged[-limit:]
    lines.append("")
    if merged:
        origin = merged[0]["abs"]
        width = max(len(record.get("node", "?")) for record in merged)
        for record in merged:
            lines.append("t+%10.6f  %-*s  %-24s %-5s %s" % (
                record["abs"] - origin, width, record.get("node", "?"),
                record.get("kind", "?"), record.get("phase", "?"),
                _fields_text(record)))
    else:
        lines.append("(no trace records)")

    health = bundle.get("health")
    if health:
        lines.append("")
        lines.append("-- backend health transitions --")
        for backend in sorted(health):
            entry = health[backend]
            lines.append("%s: state=%s failures=%s"
                         % (backend, entry.get("state"),
                            entry.get("failures")))
            for transition in entry.get("transitions", []):
                lines.append("    at=%.6f %s -> %s (%s)" % (
                    transition.get("at", 0.0), transition.get("from"),
                    transition.get("to"), transition.get("reason")))
    return "\n".join(lines) + "\n"


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.postmortem",
        description="Render a flight-recorder bundle as one merged, "
                    "clock-aligned failover timeline "
                    "(see docs/OBSERVABILITY.md).")
    parser.add_argument("bundle_dir", help="bundle directory to render")
    parser.add_argument("--trace", default=None, metavar="ID",
                        help="show only records of this trace id")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="show only the newest N records")
    args = parser.parse_args(argv)
    try:
        bundle = load_bundle(args.bundle_dir)
    except (OSError, ValueError) as exc:
        print("postmortem: cannot load %s: %s"
              % (args.bundle_dir, exc), file=sys.stderr)
        return 1
    sys.stdout.write(render(bundle, trace_id=args.trace,
                            limit=args.limit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
