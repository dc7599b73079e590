"""A start-sorted entry list as a join input that needs no pages.

XR-stack (Algorithm 6) asks its ancestor input for a forward cursor,
``seek`` and FindAncestors.  A sorted Python list answers all three: bisect
on a start column for the seeks and, for FindAncestors, a parent-index
column (each entry's nearest enclosing entry, filled in one stack pass) —
the entries stabbed by a point lie on one parent chain.  Scan-counter
charges equal the XR-tree's, so a join pipeline hands its intermediate
results to the unchanged kernels, writes nothing, and moves no count.
"""

from bisect import bisect_left, bisect_right

from repro.storage.pagedlist import iter_from


class MemoryCursor:
    """Forward cursor over a :class:`MemoryElementList`; iterable like
    :class:`~repro.storage.pagedlist.RecordCursor`."""

    def __init__(self, entries, slot):
        self._entries = entries
        self._slot = slot

    def __iter__(self):
        return iter_from(self._entries, self._slot)

    @property
    def at_end(self):
        return self._slot >= len(self._entries)

    @property
    def current(self):
        """The entry under the cursor; ``IndexError`` past the end."""
        return self._entries[self._slot]

    def advance(self):
        """Move to the next entry; returns False when the list is exhausted."""
        self._slot += 1
        return self._slot < len(self._entries)


class MemoryElementList:
    """The cursor shape of a paged list or an XR-tree over ``entries``: a
    list in start order, starts unique, regions strictly nested — what
    every element set and every join result in this library is."""

    def __init__(self, entries):
        self._entries = entries
        self.size = len(entries)
        self._starts = [entry.start for entry in entries]
        self._parents = parents = []
        open_slots = []  # the chain of entries still open at this start
        for slot, entry in enumerate(entries):
            while open_slots and entries[open_slots[-1]].end < entry.start:
                open_slots.pop()
            parents.append(open_slots[-1] if open_slots else -1)
            open_slots.append(slot)

    def first(self):
        """Cursor at the smallest start."""
        return MemoryCursor(self._entries, 0)

    def seek(self, key, finger=None):
        """Cursor at the first entry with ``start >= key``.  ``finger`` is
        the trees' probe argument, accepted and ignored: a list has no
        path to keep."""
        return MemoryCursor(self._entries, bisect_left(self._starts, key))

    def seek_after(self, key, finger=None):
        """Cursor at the first entry with ``start > key`` (``finger`` as
        for :meth:`seek`)."""
        return MemoryCursor(self._entries, bisect_right(self._starts, key))

    def find_ancestors(self, point, counter=None, after_start=None,
                       required_level=None, finger=None):
        """All entries stabbed by ``point``, in start order — the contract
        and the charges of ``XRTree.find_ancestors``: one unit per ancestor
        with ``start > after_start``, before the ``required_level`` filter
        (``finger`` as for :meth:`seek`)."""
        entries, parents, found = self._entries, self._parents, []
        # A stabbed entry is, or encloses, the last one starting before point.
        slot = bisect_left(self._starts, point) - 1
        while slot >= 0:
            entry = entries[slot]
            if after_start is not None and entry.start <= after_start:
                break
            if point < entry.end:
                found.append(entry)
            slot = parents[slot]
        if counter is not None:
            counter.count(len(found))
        found.reverse()
        if required_level is not None:
            found = [e for e in found if e.level == required_level]
        return found
