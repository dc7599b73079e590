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

FindAncestors is bounded by CurA, not by the stack top as Algorithm 6
has it: CurD's ancestors that start before CurA are on the stack already,
so the probe asks only for those starting at or after CurA.  When the leaf
covering CurD also covers CurA, that leaf alone answers and no stab list
is searched (:meth:`~repro.indexes.xrtree.XRTree.find_ancestors`).  When
the inputs overlap and CurA is CurD's own element (equal starts), the
bound leaves nothing to find: CurA rides the stack straight from the
cursor, and no probe is issued or counted as an ancestor skip.  The
answers and every scan charge are the published algorithm's.

Each input's probes share one *finger* — the last root-to-leaf path and
the stab-list pages searched through it, kept for this call only — so a
probe requests only what lies below the deepest node still covering its
key and the stab-list pages no earlier probe through that node read.  A
probe whose point the finger's leaf covers makes no descent at all.

Only a stored :class:`~repro.indexes.xrtree.XRTree` ancestor input is
probed — the skip exists to save page reads — through its
``find_ancestors``, once per ancestor skip.  The probe leaves the finger
on CurD's leaf at the slot of the first entry past CurD, and CurA reads
on from there: through that leaf's records, then each later leaf with one
fetch and one unpin (:func:`~repro.storage.pagedlist.read_page`, the
page read of :class:`~repro.storage.pagedlist.RecordCursor`), no pin held
between entries — the pages a cursor at that slot would request, and no
cursor built.  Any other ancestor input (a
:class:`~repro.joins.memory.MemoryElementList`) is merged, one unit per
ancestor passed as in Stack-Tree, into the state a probe would leave.
The descendant input answers ``first()`` and ``seek_after(key)``.
"""

from repro.indexes.bptree import Finger
from repro.indexes.xrtree import XRTree
from repro.joins.base import JoinSink, JoinStats
from repro.storage.pagedlist import iter_from, read_page


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
    emit_stack = sink.emit_stack
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(atree.first()), iter(dtree.first())
    a, d = next(a_items, None), next(d_items, None)
    find_ancestors = (atree.find_ancestors if isinstance(atree, XRTree)
                      else None)
    a_finger, d_finger = Finger(), Finger()
    # After a probe ``a_items`` runs over one leaf's records and
    # ``a_next_id`` is the leaf after it (0 also while ``a_items`` walks
    # its own chain).
    a_next_id = 0
    stack = []
    scanned = 0
    try:
        while d is not None and (a is not None or stack):
            # Guardrail checkpoint: cursors hold no pins between
            # iterations, so a deadline/cancellation trip here cannot leak
            # buffer frames.
            if tick is not None:
                tick()
            d_start = d.start
            # Line 5-7: pop stack elements that are not ancestors of CurD;
            # they cannot be ancestors of anything after CurD either.
            while stack and stack[-1].end < d_start:
                stack.pop()
            if a is not None and a.start <= d_start:
                # Lines 9-13: CurA catches up with CurD in one step.
                scanned += 1
                if find_ancestors is not None and a.start < d_start:
                    # One probe: fetch CurD's ancestors directly from the
                    # XR-tree and leap CurA past CurD.  Only those
                    # starting at or after CurA are new: every entry
                    # before CurA either rode the stack from the cursor
                    # or starts before an earlier probe's point, which
                    # CurD follows, so one enclosing CurD went onto the
                    # stack at that probe (or was on it already) and has
                    # not been popped.  (Algorithm 6 bounds the probe by
                    # the stack top, which is looser.)
                    stack.extend(find_ancestors(d_start, stats, a.start - 1,
                                                finger=a_finger))
                    stats.ancestor_skips += 1
                    leaf = a_finger.path[-1][0]
                    a_items = iter_from(leaf.records, a_finger.slot)
                    a_next_id = leaf.next_id
                    a = next(a_items, None)
                else:
                    # Merge past CurD, one unit per ancestor (the step's
                    # is CurD's), keeping those enclosing CurD; the rest
                    # end before CurD and every later descendant.
                    while a is not None and a.start < d_start:
                        scanned += 1
                        if d_start < a.end:
                            stack.append(a)
                        a = next(a_items, None)
                if a is not None and a.start == d_start:
                    # Overlapping inputs: CurD's own element is no
                    # ancestor of CurD but a candidate for *later*
                    # descendants, so it rides the stack (the sink never
                    # pairs it with itself).  As CurA it needs no probe:
                    # CurD's ancestors start before it and are stacked.
                    stack.append(a)
                    a = next(a_items, None)
                while a is None and a_next_id:
                    # CurA ran off the probe's leaf: read the next one at
                    # once, as a cursor would.  (Its entries start past
                    # the leaf's range, so none is CurD's own element.)
                    records, a_next_id = read_page(atree.pool, a_next_id)
                    a_items = iter(records)
                    a = next(a_items, None)
                if stack:
                    emit_stack(stack, d)
                d = next(d_items, None)
            else:
                scanned += 1
                if stack:
                    # Lines 15-17: open ancestors may join descendants
                    # between CurD and CurA — no skipping, emit and step.
                    emit_stack(stack, d)
                    d = next(d_items, None)
                elif a is not None:
                    # Line 19: leap CurD to the first start after
                    # CurA.start via an open-ended FindDescendants range
                    # probe.
                    stats.descendant_skips += 1
                    d_items = iter(dtree.seek_after(a.start,
                                                    finger=d_finger))
                    d = next(d_items, None)
                else:
                    break
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats
