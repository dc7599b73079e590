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
    a_cur = atree.first()
    d_cur = dtree.first()
    # One finger per input, as XR-stack keeps: a probe re-reads only the
    # pages below the last path's deepest node covering its key.
    a_finger, d_finger = Finger(), Finger()
    stack = []
    while not d_cur.at_end and (not a_cur.at_end or stack):
        # Guardrail checkpoint at a pin-free point (see JoinStats).
        stats.checkpoint()
        d = d_cur.current
        while stack and stack[-1].end < d.start:
            stack.pop()
        if not a_cur.at_end and a_cur.current.start <= d.start:
            ancestor = a_cur.current
            stats.count(1)
            if ancestor.end > d.start:
                # Opens before and closes after CurD: a live candidate.
                stack.append(ancestor)
                a_cur.advance()
            else:
                # CurD is not inside this ancestor, hence not inside any of
                # its descendants either: skip them all with one probe.
                stats.ancestor_skips += 1
                a_cur = atree.seek_after(ancestor.end, finger=a_finger)
        else:
            stats.count(1)
            if stack:
                sink.emit_stack(stack, d)
                d_cur.advance()
            elif not a_cur.at_end:
                # No open ancestors: descendants before the next candidate
                # ancestor cannot match anything — skip them with a probe.
                stats.descendant_skips += 1
                d_cur = dtree.seek(a_cur.current.start, finger=d_finger)
            else:
                break
    return (sink.pairs if collect else None), stats
