"""A classic in-memory interval tree (centered form).

"The idea of XR-tree is motivated by an internal memory data structure:
interval trees [4]" (Section 1).  This module implements that ancestor —
the centered interval tree of computational geometry — both as an
independent oracle for stabbing queries in the test suite and as the
in-memory point of comparison for the external-memory design: it answers
``FindAncestors`` in ``O(log n + R)`` *comparisons* but offers none of the
XR-tree's paging, clustering or dynamic balance under skew.

Each node stores a center point, the intervals containing it (sorted by
start and, independently, by end), and subtrees for the intervals entirely
left/right of the center.  Strict containment semantics match the region
encoding: a query point ``p`` reports intervals with ``start < p < end``.
"""

from dataclasses import dataclass, field


@dataclass
class _Node:
    center: int
    by_start: list = field(default_factory=list)   # sorted ascending start
    by_end: list = field(default_factory=list)     # sorted descending end
    left: object = None
    right: object = None


class IntervalTree:
    """Static centered interval tree over element entries.

    Build once from any iterable of entries; query with :meth:`stabbing`
    (all entries whose open interval contains a point) and
    :meth:`enclosing` (ancestors of a region, identical for strictly
    nested inputs).
    """

    def __init__(self, entries):
        self._size = 0
        entries = list(entries)
        self._root = self._build(entries)

    def __len__(self):
        return self._size

    def _build(self, entries):
        if not entries:
            return None
        points = sorted({e.start for e in entries}
                        | {e.end for e in entries})
        center = points[len(points) // 2]
        here, lefts, rights = [], [], []
        for e in entries:
            if e.end < center:
                lefts.append(e)
            elif e.start > center:
                rights.append(e)
            else:
                here.append(e)
        node = _Node(center)
        node.by_start = sorted(here, key=lambda e: e.start)
        node.by_end = sorted(here, key=lambda e: -e.end)
        self._size += len(here)
        node.left = self._build(lefts)
        node.right = self._build(rights)
        return node

    def stabbing(self, point):
        """All entries with ``start < point < end``, in start order."""
        results = []
        node = self._root
        while node is not None:
            if point < node.center:
                # Stored intervals straddle the center; those stabbed by a
                # smaller point form a prefix of the start-sorted list.
                for e in node.by_start:
                    if e.start >= point:
                        break
                    if point < e.end:
                        results.append(e)
                node = node.left
            elif point > node.center:
                for e in node.by_end:
                    if e.end <= point:
                        break
                    if e.start < point:
                        results.append(e)
                node = node.right
            else:
                results.extend(
                    e for e in node.by_start if e.start < point < e.end
                )
                break
        results.sort(key=lambda e: e.start)
        return results

    def enclosing(self, entry):
        """Strict ancestors of ``entry`` (for nested region sets, the
        stabbing set of its start minus the entry itself)."""
        return [e for e in self.stabbing(entry.start)
                if e.start != entry.start]

    def items(self):
        """All stored entries, in start order."""
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            out.extend(node.by_start)
            stack.append(node.left)
            stack.append(node.right)
        out.sort(key=lambda e: e.start)
        return out
