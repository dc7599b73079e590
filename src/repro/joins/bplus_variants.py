"""B+sp and B+psp — the pointer-enhanced B+-tree joins of Chien et al.

Section 6.1 of the XR-tree paper: "We do not show the results for the
variations of B+, namely B+sp and B+psp, because they have similar behavior
as that of B+."  This module implements both variations so that claim can be
checked rather than taken on faith:

* **B+sp** — every ancestor entry carries a *containment sibling pointer*:
  the start of the first following element that is not its descendant.
  The basic algorithm's ancestor skip (``first start > a.end``) becomes a
  pointer dereference instead of a computed range probe.
* **B+psp** — additionally a *parent pointer*: the start of the nearest
  enclosing element within the same set.  Parent chains give the B+-tree a
  poor man's FindAncestors: locate the predecessor of the query point, then
  climb parents, keeping the elements that span the point.

Both pointer kinds are packed into the entry's 64-bit ``ptr`` field
(parent start in the high half, sibling start in the low half) and are
computed at load time.  Keeping them correct under updates would require
touching an unbounded number of entries per insertion — one of the reasons
the XR-tree's self-maintaining stab lists are the better *dynamic* design.
"""

from bisect import bisect_right

from repro.joins.base import JoinSink, JoinStats

_LOW_MASK = 0xFFFFFFFF


def pack_pointers(parent_start, sibling_start):
    return ((parent_start & _LOW_MASK) << 32) | (sibling_start & _LOW_MASK)


def unpack_pointers(ptr):
    return (ptr >> 32) & _LOW_MASK, ptr & _LOW_MASK


def with_containment_pointers(entries):
    """Return copies of start-sorted ``entries`` with packed pointers.

    ``sibling`` is the start of the first following non-descendant (0 at the
    list end); ``parent`` is the start of the nearest enclosing element in
    the same list (0 for top-level elements).
    """
    starts = [e.start for e in entries]
    out = []
    stack = []  # (end, start) of open elements
    for index, element in enumerate(entries):
        while stack and stack[-1][0] < element.start:
            stack.pop()
        parent = stack[-1][1] if stack else 0
        sibling_index = bisect_right(starts, element.end)
        sibling = starts[sibling_index] if sibling_index < len(starts) else 0
        replaced = type(element)(
            element.doc_id, element.start, element.end, element.level,
            element.in_stab_list, pack_pointers(parent, sibling),
        )
        out.append(replaced)
        stack.append((element.end, element.start))
    return out


def bplus_sp_join(atree, dtree, parent_child=False, collect=True,
                  stats=None):
    """Anc_Des_B+ with sibling-pointer ancestor skips (B+sp).

    ``atree`` must be bulk-loaded from :func:`with_containment_pointers`
    output.  Identical to :func:`repro.joins.bplus_join.bplus_join` except
    that the containment skip seeks the stored sibling start directly.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    emit_stack = sink.emit_stack
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(atree.first()), iter(dtree.first())
    a, d = next(a_items, None), next(d_items, None)
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
                    stack.append(a)
                    a = next(a_items, None)
                else:
                    _parent, sibling = unpack_pointers(a.ptr)
                    if sibling:
                        a_items = iter(atree.seek(sibling))
                    else:
                        a_items = iter(atree.seek_after(a.end))
                    a = next(a_items, None)
            else:
                scanned += 1
                if stack:
                    emit_stack(stack, d)
                    d = next(d_items, None)
                elif a is not None:
                    d_items = iter(dtree.seek(a.start))
                    d = next(d_items, None)
                else:
                    break
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats


def bplus_psp_join(atree, dtree, parent_child=False, collect=True,
                   stats=None):
    """Anc_Des_B+ with parent + sibling pointers (B+psp).

    The parent chains are used XR-stack style: when the current ancestor
    trails the current descendant, the descendant's ancestors are recovered
    by climbing parents from its predecessor in the ancestor set, and the
    ancestor cursor leaps past the descendant.  Every climb step is a
    separate index probe — the locality the XR-tree's on-path stab lists
    provide is exactly what this design lacks.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    emit_stack = sink.emit_stack
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(atree.first()), iter(dtree.first())
    a, d = next(a_items, None), next(d_items, None)
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
                after = stack[-1].start if stack else None
                stack.extend(_climb_ancestors(atree, d_start, after, stats))
                a_items = iter(atree.seek(d_start))
                a = next(a_items, None)
                if a is not None and a.start == d_start:
                    stack.append(a)
                    a = next(a_items, None)
                emit_stack(stack, d)
                d = next(d_items, None)
            else:
                scanned += 1
                if stack:
                    emit_stack(stack, d)
                    d = next(d_items, None)
                elif a is not None:
                    d_items = iter(dtree.seek(a.start))
                    d = next(d_items, None)
                else:
                    break
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats


def _climb_ancestors(atree, point, after_start, stats):
    """All ancestors of ``point`` in ``atree`` with start > ``after_start``.

    Finds the predecessor of ``point`` and climbs parent pointers; the
    elements on the chain that span ``point`` are its ancestors (any
    ancestor of the point contains the predecessor's start, hence lies on
    the predecessor's parent chain).
    """
    chain = []
    current = atree.predecessor(point)
    while current is not None:
        if after_start is not None and current.start <= after_start:
            break
        stats.count(1)
        if current.end > point:
            chain.append(current)
        parent_start, _sibling = unpack_pointers(current.ptr)
        if not parent_start:
            break
        current = atree.search(parent_start)
    chain.reverse()
    return chain
