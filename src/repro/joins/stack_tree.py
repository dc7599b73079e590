"""Stack-Tree-Desc (Srivastava et al., ICDE 2002) — the ``no-index`` baseline.

Conceptually merges the two start-sorted input lists while keeping the
ancestors of the current descendant on an in-memory stack, so each list is
scanned exactly once; the flip side (the paper's motivation) is that *every*
element is scanned whether or not it has matches.
"""

from repro.joins.base import JoinSink, JoinStats

_INF = float("inf")


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
    a_cur = alist.first()
    d_cur = dlist.first()
    stack = []
    while not d_cur.at_end and (not a_cur.at_end or stack):
        # Guardrail checkpoint at a pin-free point (see JoinStats).
        stats.checkpoint()
        a_start = a_cur.current.start if not a_cur.at_end else _INF
        d = d_cur.current
        boundary = min(a_start, d.start)
        while stack and stack[-1].end < boundary:
            stack.pop()
        if a_start <= d.start:
            # CurA opens at or before CurD: it is a candidate ancestor for
            # later descendants; the pops above guarantee it nests in the
            # top.  (Equality happens when the two input sets overlap, e.g.
            # a same-tag self-join; the sink never emits such a frame for
            # its own element.)
            stats.count(1)
            stack.append(a_cur.current)
            a_cur.advance()
        else:
            stats.count(1)
            sink.emit_stack(stack, d)
            d_cur.advance()
    return (sink.pairs if collect else None), stats
