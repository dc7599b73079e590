"""Stack-Tree-Desc (Srivastava et al., ICDE 2002) — the ``no-index`` baseline.

Conceptually merges the two start-sorted input lists while keeping the
ancestors of the current descendant on an in-memory stack, so each list is
scanned exactly once; the flip side (the paper's motivation) is that *every*
element is scanned whether or not it has matches.
"""

from repro.joins.base import JoinSink, JoinStats


def stack_tree_join(alist, dlist, parent_child=False, collect=True,
                    stats=None, sink=None):
    """Join two start-sorted inputs scanned from ``first()`` — paged
    element lists, or any other access method's leaf level.

    Returns ``(pairs, stats)``; ``pairs`` is None when ``collect`` is off.
    ``sink`` as for :func:`~repro.joins.xr_stack.xr_stack_join`.
    """
    stats = stats or JoinStats()
    if sink is None:
        sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    emit_stack = sink.emit_stack
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(alist.first()), iter(dlist.first())
    a, d = next(a_items, None), next(d_items, None)
    stack = []
    scanned = 0
    try:
        while d is not None and (a is not None or stack):
            # Guardrail checkpoint at a pin-free point (see JoinStats).
            if tick is not None:
                tick()
            d_start = d.start
            if a is not None and a.start <= d_start:
                # CurA opens at or before CurD: it is a candidate ancestor
                # for later descendants; once the frames closing before it
                # pop, it nests in the top.  (Equality happens when the two
                # input sets overlap, e.g. a same-tag self-join; the sink
                # never emits such a frame for its own element.)
                a_start = a.start
                while stack and stack[-1].end < a_start:
                    stack.pop()
                scanned += 1
                stack.append(a)
                a = next(a_items, None)
            else:
                while stack and stack[-1].end < d_start:
                    stack.pop()
                scanned += 1
                if stack:
                    emit_stack(stack, d)
                d = next(d_items, None)
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats
