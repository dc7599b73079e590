"""MPMGJN — multi-predicate merge join (Zhang et al., SIGMOD 2001).

The earliest merge-based structural join.  For every ancestor it rescans the
descendant list from a saved anchor, so overlapping ancestor regions cause
repeated scans of the same descendant pages — "a lot of unnecessary
computation and I/O" in the paper's words (Section 2.2).  Included as an
extra baseline beyond the paper's Table 1 to make that gap measurable.

Both inputs are read by iteration.  The anchor is kept as the
``(page_id, slot)`` of the descendant it stands on, and each rescan is a
new :class:`~repro.storage.pagedlist.RecordCursor` built there, which reads
the anchor's page through the buffer pool again: the rescans are charged
their page accesses.
"""

from repro.joins.base import JoinSink, JoinStats
from repro.storage.pagedlist import RecordCursor


def mpmgjn_join(alist, dlist, parent_child=False, collect=True, stats=None):
    """Join two :class:`~repro.storage.pagedlist.PagedElementList` inputs.

    Returns ``(pairs, stats)``; ``pairs`` is None when ``collect`` is off.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    # Guardrail checkpoints at pin-free points (see JoinStats): once per
    # iteration of every loop, the rescan included — a cursor holds no pin
    # while its iteration is suspended.
    tick = stats.runtime.tick if stats.runtime is not None else None
    # The ancestor list's head page is fetched before the descendant list's.
    ancestors = alist.first()
    d_cursor = dlist.first()
    descendants = iter(d_cursor)
    anchor = next(descendants, None)
    # The anchor's position: first() starts at slot 0, and every page
    # after the first is entered at slot 0.
    page_id, slot = d_cursor.page_id, 0
    for ancestor in ancestors:
        if tick is not None:
            tick()
        stats.count(1)
        # Advance the anchor past descendants that precede this ancestor
        # entirely; they cannot match any later ancestor either.
        while anchor is not None and anchor.start < ancestor.start:
            if tick is not None:
                tick()
            stats.count(1)
            anchor = next(descendants, None)
            if d_cursor.page_id == page_id:
                slot += 1
            else:
                page_id, slot = d_cursor.page_id, 0
        if anchor is None:
            break
        # Rescan from the anchor across this ancestor's region.
        for descendant in RecordCursor(dlist.pool, page_id, slot):
            if descendant.start >= ancestor.end:
                break
            if tick is not None:
                tick()
            stats.count(1)
            if descendant.start > ancestor.start:
                sink.emit(ancestor, descendant)
    return (sink.pairs if collect else None), stats
