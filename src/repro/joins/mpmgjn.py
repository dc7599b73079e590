"""MPMGJN — multi-predicate merge join (Zhang et al., SIGMOD 2001).

The earliest merge-based structural join.  For every ancestor it rescans the
descendant list from a saved anchor, so overlapping ancestor regions cause
repeated scans of the same descendant pages — "a lot of unnecessary
computation and I/O" in the paper's words (Section 2.2).  Included as an
extra baseline beyond the paper's Table 1 to make that gap measurable.
"""

from repro.joins.base import JoinSink, JoinStats


def mpmgjn_join(alist, dlist, parent_child=False, collect=True, stats=None):
    """Join two :class:`~repro.storage.pagedlist.PagedElementList` inputs.

    Returns ``(pairs, stats)``; ``pairs`` is None when ``collect`` is off.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    # Guardrail checkpoints at pin-free points (see JoinStats): once per
    # iteration of every loop, the rescan included — a cursor, a clone
    # too, holds no pin between calls.
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_cur = alist.first()
    anchor = dlist.first()
    while not a_cur.at_end:
        if tick is not None:
            tick()
        ancestor = a_cur.current
        stats.count(1)
        # Advance the anchor past descendants that precede this ancestor
        # entirely; they cannot match any later ancestor either.
        while not anchor.at_end and anchor.current.start < ancestor.start:
            if tick is not None:
                tick()
            stats.count(1)
            anchor.advance()
        if anchor.at_end:
            break
        # Rescan from the anchor across this ancestor's region.
        scan = anchor.clone()
        while not scan.at_end and scan.current.start < ancestor.end:
            if tick is not None:
                tick()
            stats.count(1)
            descendant = scan.current
            if descendant.start > ancestor.start:
                sink.emit(ancestor, descendant)
            scan.advance()
        a_cur.advance()
    return (sink.pairs if collect else None), stats
