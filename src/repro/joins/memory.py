"""A start-sorted entry list as a join input that needs no pages.

XR-stack (Algorithm 6) asks its ancestor input for ``first()`` and
``probe(point)`` — FindAncestors and the re-seek past CurD in one lookup —
and its descendant input for ``first()`` and ``seek_after(key)``.  A
sorted Python list answers them all: bisect on a start column for the
seeks and, for FindAncestors, a parent-index column (each entry's nearest
enclosing entry, filled in one stack pass) — the entries stabbed by a
point lie on one parent chain.  The column is built by the first probe,
so a list that is only read by iteration and seeks (a join's descendant
side, or the ancestor side of a self-join, which XR-stack never probes)
never pays for it.  Every read hands out a plain list iterator.
Scan-counter charges equal the XR-tree's, so a join pipeline hands its
intermediate results to the unchanged kernels, writes nothing, and moves
no count.
"""

from bisect import bisect_left, bisect_right

from repro.storage.pagedlist import iter_from


class MemoryElementList:
    """The read shape of a paged list or an XR-tree over ``entries``: a
    list in start order, starts unique, regions strictly nested — what
    every element set and every join result in this library is."""

    def __init__(self, entries):
        self._entries = entries
        self.size = len(entries)
        self._starts = [entry.start for entry in entries]
        self._parents = None  # built by the first probe

    def _parent_column(self):
        """Each entry's nearest enclosing entry (its slot, or -1), filled
        in one stack pass the first time a probe asks."""
        if self._parents is None:
            entries = self._entries
            parents, open_slots = [], []  # open: the chain at this start
            for slot, entry in enumerate(entries):
                while open_slots and entries[open_slots[-1]].end < entry.start:
                    open_slots.pop()
                parents.append(open_slots[-1] if open_slots else -1)
                open_slots.append(slot)
            self._parents = parents
        return self._parents

    def first(self):
        """Iterator from the smallest start."""
        return iter(self._entries)

    def seek(self, key, finger=None):
        """Iterator from the first entry with ``start >= key``.  ``finger``
        is the trees' probe argument, accepted and ignored: a list has no
        path to keep."""
        return iter_from(self._entries, bisect_left(self._starts, key))

    def seek_after(self, key, finger=None):
        """Iterator from the first entry with ``start > key`` (``finger``
        as for :meth:`seek`)."""
        return iter_from(self._entries, bisect_right(self._starts, key))

    def find_ancestors(self, point, counter=None, after_start=None,
                       required_level=None, finger=None):
        """All entries stabbed by ``point``, in start order — the contract
        and the charges of ``XRTree.find_ancestors``: one unit per ancestor
        with ``start > after_start``, before the ``required_level`` filter
        (``finger`` as for :meth:`seek`)."""
        found = self.probe(point, counter, after_start)[0]
        if required_level is not None:
            found = [e for e in found if e.level == required_level]
        return found

    def probe(self, point, counter=None, after_start=None, finger=None):
        """``(find_ancestors(point, counter, after_start), seek(point))``
        from one bisect — XR-stack's ancestor step (``finger`` as for
        :meth:`seek`)."""
        entries, parents, found = self._entries, self._parent_column(), []
        slot = bisect_left(self._starts, point)
        # A stabbed entry is, or encloses, the last one starting before point.
        stab = slot - 1
        while stab >= 0:
            entry = entries[stab]
            if after_start is not None and entry.start <= after_start:
                break
            if point < entry.end:
                found.append(entry)
            stab = parents[stab]
        if counter is not None:
            counter.count(len(found))
        found.reverse()
        return found, iter_from(entries, slot)
