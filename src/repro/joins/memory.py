"""A start-sorted entry list as a join input that needs no pages.

The kernels read their inputs from ``first()`` and, on the descendant
side, leap with ``seek_after(key)``; a sorted Python list answers both,
bisecting a start column for the seek, and every read hands out a plain
list iterator.  XR-stack probes only a stored XR-tree — FindAncestors
exists to save page reads, and a list has none to save — so over a list
on the ancestor side it merges, and the list answers no probe.  A join
pipeline hands its intermediate results to the unchanged kernels, writes
nothing, and charges what the kernels charge.
"""

from bisect import bisect_left, bisect_right

from repro.storage.pagedlist import iter_from


class MemoryElementList:
    """The read shape of a paged list or an XR-tree's leaf level over
    ``entries``: a list in start order, starts unique, regions strictly
    nested — what every element set and every join result in this
    library is."""

    def __init__(self, entries):
        self._entries = entries
        self.size = len(entries)
        self._starts = [entry.start for entry in entries]

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
