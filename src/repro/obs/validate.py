"""Machine validation of exported trace JSONL against the documented schema.

Usable as a library (:func:`validate_records`, :func:`validate_jsonl`) and
as a command line tool::

    python -m repro.obs.validate trace.jsonl

Exit status 0 means every record conforms; 1 means violations were found
(each printed).  The schema being enforced is the one documented in
``docs/OBSERVABILITY.md``, version 2 (the only one any tracer emits):

* the first line is a ``trace-meta`` header carrying ``v`` (2),
  ``capacity``, ``emitted``, ``dropped``, a numeric ``wall_epoch`` for
  cross-node clock alignment, and optionally the emitting ``node``;
* every record has integer ``v`` == 2, a numeric non-negative ``ts``, a
  non-empty string ``kind`` and a ``phase`` in ``begin`` / ``end`` /
  ``event``;
* ``begin``/``end`` records carry an integer ``span``; ``end`` records a
  non-negative ``dur``;
* ``fields``, when present, is a string-keyed object;
* ``trace`` (when present) is a non-empty string, ``node`` a non-empty
  string, ``attempt`` a positive integer, and ``link`` — a cross-node
  parent reference — an object with a string ``trace``, an integer
  ``span`` and optionally a string ``node``;
* when the header reports ``dropped == 0`` (no ring wraparound), spans
  must pair up: every ``end`` has a matching earlier ``begin`` and parent
  references point at spans that began earlier.  With drops, pairing is
  not checkable (the begins may have been overwritten) and only
  record-level checks apply.
"""

import json
import sys

from repro.obs.trace import TRACE_SCHEMA_VERSION


def _check_context_fields(record, where, problems):
    """The cluster-propagation fields: trace, node, attempt, link."""
    trace = record.get("trace")
    if trace is not None and (not isinstance(trace, str) or not trace):
        problems.append("%s: bad trace id %r" % (where, trace))
    node = record.get("node")
    if node is not None and (not isinstance(node, str) or not node):
        problems.append("%s: bad node id %r" % (where, node))
    attempt = record.get("attempt")
    if attempt is not None and (not isinstance(attempt, int)
                                or attempt < 1):
        problems.append("%s: bad attempt %r" % (where, attempt))
    link = record.get("link")
    if link is not None:
        if not isinstance(link, dict):
            problems.append("%s: link is not an object" % where)
        else:
            if not isinstance(link.get("trace"), str) or not link["trace"]:
                problems.append("%s: link without a string trace id"
                                % where)
            if not isinstance(link.get("span"), int):
                problems.append("%s: link without an integer span"
                                % where)
            if "node" in link and not isinstance(link["node"], str):
                problems.append("%s: link with a non-string node %r"
                                % (where, link["node"]))


def validate_records(records, strict_pairing=None):
    """Validate decoded trace records; returns a list of problem strings.

    ``records`` includes the meta header when present.  ``strict_pairing``
    forces span-pairing checks on/off; by default it follows the header's
    ``dropped`` count (strict only when nothing was dropped).
    """
    problems = []
    records = list(records)
    if not records:
        return ["empty trace: no records at all"]
    meta = records[0] if records[0].get("kind") == "trace-meta" else None
    body = records[1:] if meta is not None else records
    if meta is None:
        problems.append("first record is not a trace-meta header")
    else:
        for key in ("v", "capacity", "emitted", "dropped"):
            if not isinstance(meta.get(key), int):
                problems.append("trace-meta: missing/invalid %r" % key)
        if meta.get("v") != TRACE_SCHEMA_VERSION:
            problems.append("trace-meta: schema version %r, expected %d"
                            % (meta.get("v"), TRACE_SCHEMA_VERSION))
        wall = meta.get("wall_epoch")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append("trace-meta: missing/invalid wall_epoch %r"
                            % (wall,))
        node = meta.get("node")
        if node is not None and (not isinstance(node, str) or not node):
            problems.append("trace-meta: bad node id %r" % (node,))
        if not isinstance(meta.get("live", False), bool):
            problems.append("trace-meta: non-boolean live flag %r"
                            % (meta.get("live"),))
    if strict_pairing is None:
        # A "live" capture (a flight-recorder dump taken mid-flight) may
        # legitimately hold open spans; pairing is only checkable on a
        # complete, drop-free export.
        strict_pairing = (bool(meta) and meta.get("dropped") == 0
                          and not meta.get("live", False))

    begun = {}
    ended = set()
    last_ts = None
    for index, record in enumerate(body):
        where = "record %d" % (index + 1)
        if not isinstance(record, dict):
            problems.append("%s: not an object" % where)
            continue
        if record.get("v") != TRACE_SCHEMA_VERSION:
            problems.append("%s: bad schema version %r"
                            % (where, record.get("v")))
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append("%s: bad ts %r" % (where, ts))
        elif last_ts is not None and ts + 1e-6 < last_ts:
            problems.append("%s: timestamps went backwards (%r after %r)"
                            % (where, ts, last_ts))
        else:
            last_ts = ts
        kind = record.get("kind")
        if not isinstance(kind, str) or not kind:
            problems.append("%s: bad kind %r" % (where, kind))
        phase = record.get("phase")
        if phase not in ("begin", "end", "event"):
            problems.append("%s: bad phase %r" % (where, phase))
            continue
        span = record.get("span")
        parent = record.get("parent")
        if phase in ("begin", "end") and not isinstance(span, int):
            problems.append("%s: %s record without integer span"
                            % (where, phase))
        if parent is not None and not isinstance(parent, int):
            problems.append("%s: non-integer parent %r" % (where, parent))
        if phase == "end":
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append("%s: end record with bad dur %r"
                                % (where, dur))
        fields = record.get("fields")
        if fields is not None:
            if not isinstance(fields, dict) or any(
                    not isinstance(key, str) for key in fields):
                problems.append("%s: fields is not a string-keyed object"
                                % where)
        _check_context_fields(record, where, problems)
        if strict_pairing and isinstance(span, int):
            if phase == "begin":
                if span in begun:
                    problems.append("%s: span %d began twice"
                                    % (where, span))
                begun[span] = kind
            elif phase == "end":
                if span not in begun:
                    problems.append("%s: end of span %d with no begin"
                                    % (where, span))
                elif span in ended:
                    problems.append("%s: span %d ended twice"
                                    % (where, span))
                elif begun[span] != kind:
                    problems.append(
                        "%s: span %d began as %r but ended as %r"
                        % (where, span, begun[span], kind))
                ended.add(span)
        if strict_pairing and isinstance(parent, int) and parent not in begun:
            problems.append("%s: parent %d never began" % (where, parent))
    if strict_pairing:
        for span in sorted(set(begun) - ended):
            problems.append("span %d began but never ended" % span)
    return problems


def validate_jsonl(text, strict_pairing=None):
    """Validate JSONL text; returns a list of problem strings."""
    records = []
    problems = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            problems.append("line %d: invalid JSON (%s)" % (number, exc))
    return problems + validate_records(records, strict_pairing)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.validate <trace.jsonl>",
              file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        text = handle.read()
    problems = validate_jsonl(text)
    records = sum(1 for line in text.splitlines() if line.strip())
    if problems:
        for problem in problems:
            print("INVALID: %s" % problem)
        return 1
    print("OK: %d records conform to trace schema v%d"
          % (records, TRACE_SCHEMA_VERSION))
    return 0


if __name__ == "__main__":
    sys.exit(main())
