"""XR-stack (Algorithm 6) — stack-based structural join over XR-trees.

The join merges the two leaf levels like Stack-Tree, but uses the XR-tree
primitives to skip in *both* directions:

* when the current ancestor pointer trails the current descendant,
  ``FindAncestors`` fetches exactly CurD's ancestors (the elements between
  are never touched) and the ancestor pointer leaps past CurD;
* when the current descendant trails the current ancestor and no ancestor is
  open on the stack, an open-ended ``FindDescendants`` range probe leaps the
  descendant pointer to the first start beyond the current ancestor.

Descendants can never be skipped while the stack is non-empty: the open
ancestors could join descendants between CurD and CurA (lines 15-17).

Each input's probes share one *finger* — the last root-to-leaf path and
the stab-list pages searched through it, kept for this call only — so a
probe requests only what lies below the deepest node still covering its
key and the stab-list pages no earlier probe through that node read, and
the ``seek(d.start)`` after ``FindAncestors(d.start)`` starts on the leaf
the latter already holds.
"""

from repro.indexes.bptree import Finger
from repro.joins.base import JoinSink, JoinStats


def xr_stack_join(atree, dtree, parent_child=False, collect=True, stats=None,
                  sink=None):
    """Join two :class:`~repro.indexes.xrtree.XRTree` indexed sets.

    Returns ``(pairs, stats)``; ``pairs`` is None when ``collect`` is off.
    ``sink`` is what the pairs are emitted into, by default a
    pair-collecting :class:`~repro.joins.base.JoinSink`; build one over
    the same ``stats`` (its own ``parent_child`` then decides which pairs
    match).
    """
    stats = stats or JoinStats()
    if sink is None:
        sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    a_cur = atree.first()
    d_cur = dtree.first()
    a_finger, d_finger = Finger(), Finger()
    stack = []
    while not d_cur.at_end and (not a_cur.at_end or stack):
        # Guardrail checkpoint: cursors hold no pins between iterations,
        # so a deadline/cancellation trip here cannot leak buffer frames.
        stats.checkpoint()
        d = d_cur.current
        # Line 5-7: pop stack elements that are not ancestors of CurD; they
        # cannot be ancestors of anything after CurD either.
        while stack and stack[-1].end < d.start:
            stack.pop()
        if not a_cur.at_end and a_cur.current.start <= d.start:
            # Lines 9-13: fetch CurD's ancestors directly from the XR-tree;
            # only those after the stack top are new (the rest are on the
            # stack already).
            stats.count(1)
            after = stack[-1].start if stack else None
            for ancestor in atree.find_ancestors(d.start, counter=stats,
                                                 after_start=after,
                                                 finger=a_finger):
                stack.append(ancestor)
            # Leap CurA past CurD.  With overlapping input sets the ancestor
            # side may hold CurD's own element (start equality): it is not
            # an ancestor of CurD (FindAncestors returns strict ancestors
            # only) but is a live candidate for *later* descendants, so it
            # must ride the stack rather than be leapt over.  The sink never
            # pairs it with its own element.
            stats.ancestor_skips += 1
            a_cur = atree.seek(d.start, finger=a_finger)
            if not a_cur.at_end and a_cur.current.start == d.start:
                stack.append(a_cur.current)
                a_cur.advance()
            sink.emit_stack(stack, d)
            d_cur.advance()
        else:
            stats.count(1)
            if stack:
                # Lines 15-17: open ancestors may join descendants between
                # CurD and CurA — no skipping, emit and step.
                sink.emit_stack(stack, d)
                d_cur.advance()
            elif not a_cur.at_end:
                # Line 19: leap CurD to the first start after CurA.start via
                # an open-ended FindDescendants range probe.
                stats.descendant_skips += 1
                d_cur = dtree.seek_after(a_cur.current.start,
                                         finger=d_finger)
            else:
                break
    return (sink.pairs if collect else None), stats
