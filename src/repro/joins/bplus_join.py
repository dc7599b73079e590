"""Anc_Des_B+ (Chien et al., VLDB 2002) — the ``B+`` baseline.

A stack-based merge over two element sets indexed by B+-trees on ``start``.
Two skips are available (Section 6.2 discussion):

* **descendant skip** — when no candidate ancestor is open, descendants
  before the current ancestor's start are skipped with a range probe;
* **containment-based ancestor skip** — when the current ancestor closes
  before the current descendant starts, all of its own descendants in the
  ancestor list are skipped by probing for the first start beyond its end.

The ancestor skip only pays off for highly nested ancestor sets; for flat
sets the algorithm degenerates to a full scan of the ancestor list — the
asymmetry XR-trees remove.
"""

from repro.indexes.bptree import Finger
from repro.joins.base import JoinSink, JoinStats


def bplus_join(atree, dtree, parent_child=False, collect=True, stats=None):
    """Join two :class:`~repro.indexes.bptree.BPlusTree` indexed sets.

    Returns ``(pairs, stats)``; ``pairs`` is None when ``collect`` is off.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    emit_stack = sink.emit_stack
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(atree.first()), iter(dtree.first())
    a, d = next(a_items, None), next(d_items, None)
    # One finger per input, as XR-stack keeps: a probe re-reads only the
    # pages below the last path's deepest node covering its key.
    a_finger, d_finger = Finger(), Finger()
    stack = []
    scanned = 0
    try:
        while d is not None and (a is not None or stack):
            # Guardrail checkpoint at a pin-free point (see JoinStats).
            if tick is not None:
                tick()
            d_start = d.start
            while stack and stack[-1].end < d_start:
                stack.pop()
            if a is not None and a.start <= d_start:
                scanned += 1
                if a.end > d_start:
                    # Opens before and closes after CurD: a live candidate.
                    stack.append(a)
                    a = next(a_items, None)
                else:
                    # CurD is not inside this ancestor, hence not inside
                    # any of its descendants either: skip them all with one
                    # probe.
                    stats.ancestor_skips += 1
                    a_items = iter(atree.seek_after(a.end, finger=a_finger))
                    a = next(a_items, None)
            else:
                scanned += 1
                if stack:
                    emit_stack(stack, d)
                    d = next(d_items, None)
                elif a is not None:
                    # No open ancestors: descendants before the next
                    # candidate ancestor cannot match anything — skip them
                    # with a probe.
                    stats.descendant_skips += 1
                    d_items = iter(dtree.seek(a.start, finger=d_finger))
                    d = next(d_items, None)
                else:
                    break
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats
