"""A disk-based R-tree over region-encoded elements, plus the synchronized
tree-traversal structural join.

The XR-tree paper's related work (Section 2.2) notes that Chien et al. "also
presented a structural join algorithm that utilizes R-trees with synchronized
tree traversal" [6, 17], and Section 6.1 excludes R*-tree joins from the
comparison "because they have been shown in [8] to be less robust than the
B+ algorithm".  This module implements that excluded baseline so the claim
can be measured: elements are indexed as 2-D points ``(start, end)``, the
tree is a classic Guttman R-tree (quadratic split) with an STR bulk loader,
and the join recurses over MBR-compatible node pairs.

The ancestor-descendant condition ``a.start < d.start`` and ``d.end < a.end``
is a half-open window in the (start, end) plane, so both FindAncestors and
FindDescendants are window queries here — just without the worst-case I/O
guarantee the XR-tree provides.
"""

import struct
from dataclasses import dataclass

from repro.joins.base import JoinSink, JoinStats
from repro.storage.errors import PageDecodeError, StorageError
from repro.storage.pagedlist import RecordPage
from repro.storage.pages import PAGE_HEADER_SIZE, Page, register_page_type


class RTreeError(StorageError):
    """R-tree protocol violations."""


@dataclass(frozen=True)
class Rect:
    """A rectangle in the (start, end) plane."""

    min_start: int
    max_start: int
    min_end: int
    max_end: int

    @classmethod
    def of_entry(cls, entry):
        return cls(entry.start, entry.start, entry.end, entry.end)

    def union(self, other):
        return Rect(
            min(self.min_start, other.min_start),
            max(self.max_start, other.max_start),
            min(self.min_end, other.min_end),
            max(self.max_end, other.max_end),
        )

    def area(self):
        return ((self.max_start - self.min_start + 1)
                * (self.max_end - self.min_end + 1))

    def enlargement(self, other):
        return self.union(other).area() - self.area()

    def intersects_window(self, min_s, max_s, min_e, max_e):
        return not (self.max_start < min_s or self.min_start > max_s
                    or self.max_end < min_e or self.min_end > max_e)

    def contains_point(self, start, end):
        return (self.min_start <= start <= self.max_start
                and self.min_end <= end <= self.max_end)


_INF = 2 ** 31 - 1


@register_page_type
class RTreeLeafPage(RecordPage):
    """Leaf page: element entries (points in the (start, end) plane)."""

    TYPE_ID = 10


@register_page_type
class RTreeInternalPage(Page):
    """Internal page: child MBRs and pointers."""

    TYPE_ID = 11
    _HEADER = struct.Struct("<H")
    _ENTRY = struct.Struct("<iiiiI")

    def __init__(self, rects=None, children=None):
        super().__init__()
        self.rects = list(rects) if rects else []
        self.children = list(children) if children else []

    @classmethod
    def capacity(cls, page_size):
        return (page_size - PAGE_HEADER_SIZE - cls._HEADER.size) \
            // cls._ENTRY.size

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.children))
        offset = self._HEADER.size
        for rect, child in zip(self.rects, self.children, strict=True):
            self._ENTRY.pack_into(out, offset, rect.min_start, rect.max_start,
                                  rect.min_end, rect.max_end, child)
            offset += self._ENTRY.size

    @classmethod
    def decode_payload(cls, data, page_size):
        (count,) = cls._HEADER.unpack_from(data, 0)
        end = cls._HEADER.size + count * cls._ENTRY.size
        if end > len(data):
            raise PageDecodeError(
                "R-tree internal page claims %d children but the payload "
                "holds at most %d"
                % (count, (len(data) - cls._HEADER.size) // cls._ENTRY.size)
            )
        entries = list(cls._ENTRY.iter_unpack(data[cls._HEADER.size : end]))
        return cls([Rect(*entry[:4]) for entry in entries],
                   [entry[4] for entry in entries])


def _leaf_rect(records):
    rect = Rect.of_entry(records[0])
    for record in records[1:]:
        rect = rect.union(Rect.of_entry(record))
    return rect


class RTree:
    """Dynamic R-tree (Guttman, quadratic split) with an STR bulk loader."""

    def __init__(self, pool, leaf_capacity=None, internal_capacity=None):
        self.pool = pool
        self.root_id = 0
        self.root_rect = None
        self.height = 0
        self.size = 0
        self.leaf_capacity = leaf_capacity or RTreeLeafPage.capacity(
            pool.page_size)
        self.internal_capacity = (
            internal_capacity or RTreeInternalPage.capacity(pool.page_size)
        )
        if self.leaf_capacity < 2 or self.internal_capacity < 2:
            raise RTreeError("page size too small for R-tree nodes")

    # -- bulk loading (Sort-Tile-Recursive) -----------------------------------

    def bulk_load(self, entries, fill_factor=1.0):
        """Pack start-sorted ``entries`` bottom-up (STR degenerates to
        simple tiling for points already sorted on one axis)."""
        if self.root_id:
            raise RTreeError("bulk_load requires an empty tree")
        entries = sorted(entries, key=lambda e: (e.start, e.end))
        if not entries:
            return
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        level = []
        for index in range(0, len(entries), per_leaf):
            chunk = entries[index : index + per_leaf]
            page = self.pool.new_page(RTreeLeafPage(chunk))
            level.append((_leaf_rect(chunk), page.page_id))
            self.pool.unpin(page, dirty=True)
        self.size = len(entries)
        self.height = 1
        per_internal = max(2, int(self.internal_capacity * fill_factor))
        while len(level) > 1:
            next_level = []
            for index in range(0, len(level), per_internal):
                group = level[index : index + per_internal]
                rect = group[0][0]
                for other, _ in group[1:]:
                    rect = rect.union(other)
                page = self.pool.new_page(RTreeInternalPage(
                    [r for r, _ in group], [pid for _, pid in group]))
                next_level.append((rect, page.page_id))
                self.pool.unpin(page, dirty=True)
            level = next_level
            self.height += 1
        self.root_rect, self.root_id = level[0]

    # -- insertion (Guttman) ------------------------------------------------------

    def insert(self, entry):
        rect = Rect.of_entry(entry)
        if not self.root_id:
            page = self.pool.new_page(RTreeLeafPage([entry]))
            self.root_id = page.page_id
            self.root_rect = rect
            self.height = 1
            self.size = 1
            self.pool.unpin(page, dirty=True)
            return
        split = self._insert_into(self.root_id, entry, rect, self.height)
        self.root_rect = self.root_rect.union(rect)
        self.size += 1
        if split is not None:
            left_rect, right_rect, right_id = split
            new_root = self.pool.new_page(RTreeInternalPage(
                [left_rect, right_rect], [self.root_id, right_id]))
            self.root_id = new_root.page_id
            self.height += 1
            self.pool.unpin(new_root, dirty=True)

    def _insert_into(self, page_id, entry, rect, level):
        """Recursive insert; returns (left_rect, right_rect, right_id) on
        split, else None."""
        page = self.pool.fetch(page_id)
        if isinstance(page, RTreeLeafPage):
            page.records.append(entry)
            if len(page.records) <= self.leaf_capacity:
                self.pool.unpin(page, dirty=True)
                return None
            left, right = _quadratic_split(
                page.records, Rect.of_entry, self.leaf_capacity)
            page.records = left
            right_page = self.pool.new_page(RTreeLeafPage(right))
            result = (_leaf_rect(left), _leaf_rect(right),
                      right_page.page_id)
            self.pool.unpin(right_page, dirty=True)
            self.pool.unpin(page, dirty=True)
            return result
        # Choose the child needing least enlargement (ties: smaller area).
        best = min(
            range(len(page.children)),
            key=lambda i: (page.rects[i].enlargement(rect),
                           page.rects[i].area()),
        )
        child_id = page.children[best]
        split = self._insert_into(child_id, entry, rect, level - 1)
        if split is None:
            page.rects[best] = page.rects[best].union(rect)
            self.pool.unpin(page, dirty=True)
            return None
        left_rect, right_rect, right_id = split
        page.rects[best] = left_rect
        page.rects.append(right_rect)
        page.children.append(right_id)
        if len(page.children) <= self.internal_capacity:
            self.pool.unpin(page, dirty=True)
            return None
        pairs = list(zip(page.rects, page.children))
        left, right = _quadratic_split(pairs, lambda p: p[0],
                                       self.internal_capacity)
        page.rects = [r for r, _ in left]
        page.children = [c for _, c in left]
        right_page = self.pool.new_page(RTreeInternalPage(
            [r for r, _ in right], [c for _, c in right]))
        result = (_union_all([r for r, _ in left]),
                  _union_all([r for r, _ in right]), right_page.page_id)
        self.pool.unpin(right_page, dirty=True)
        self.pool.unpin(page, dirty=True)
        return result

    # -- queries ---------------------------------------------------------------------

    def window(self, min_s, max_s, min_e, max_e, counter=None):
        """All entries with start in [min_s, max_s] and end in [min_e, max_e]."""
        results = []
        if not self.root_id:
            return results
        frontier = [self.root_id]
        while frontier:
            page_id = frontier.pop()
            with self.pool.pinned(page_id) as page:
                if isinstance(page, RTreeLeafPage):
                    for record in page.records:
                        if counter is not None:
                            counter.count(1)
                        if (min_s <= record.start <= max_s
                                and min_e <= record.end <= max_e):
                            results.append(record)
                else:
                    for rect, child in zip(page.rects, page.children):
                        if rect.intersects_window(min_s, max_s, min_e, max_e):
                            frontier.append(child)
        results.sort(key=lambda r: r.start)
        return results

    def find_ancestors(self, point, counter=None):
        """Ancestors of ``point``: start < point < end as a window query."""
        return self.window(-_INF, point - 1, point + 1, _INF, counter)

    def find_descendants(self, ancestor_start, ancestor_end, counter=None):
        """Descendants: start in (ancestor_start, ancestor_end)."""
        return self.window(ancestor_start + 1, ancestor_end - 1,
                           -_INF, _INF, counter)

    def items(self):
        """All entries in start order."""
        return self.window(-_INF, _INF, -_INF, _INF)

    def check(self):
        """Validate MBR containment and record count."""
        if not self.root_id:
            if self.size:
                raise RTreeError("empty tree with non-zero size")
            return True
        total = [0]

        def _walk(page_id, bound, depth):
            with self.pool.pinned(page_id) as page:
                if isinstance(page, RTreeLeafPage):
                    if depth != self.height:
                        raise RTreeError("leaf depth mismatch")
                    for record in page.records:
                        if bound is not None and not bound.contains_point(
                                record.start, record.end):
                            raise RTreeError("record escapes its MBR")
                    total[0] += len(page.records)
                    return []
                for rect, _child in zip(page.rects, page.children):
                    if bound is not None and bound.union(rect) != bound:
                        raise RTreeError("child MBR escapes parent MBR")
                return list(zip(page.rects, page.children))

        frontier = [(self.root_id, None, 1)]
        while frontier:
            page_id, bound, depth = frontier.pop()
            for rect, child in _walk(page_id, bound, depth):
                frontier.append((child, rect, depth + 1))
        if total[0] != self.size:
            raise RTreeError("size %d != %d records" % (self.size, total[0]))
        return True


def _union_all(rects):
    rect = rects[0]
    for other in rects[1:]:
        rect = rect.union(other)
    return rect


def _quadratic_split(items, rect_of, capacity):
    """Guttman's quadratic split; returns (left_items, right_items)."""
    # Pick the pair of seeds wasting the most area together.
    worst, seeds = -1, (0, 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            waste = (rect_of(items[i]).union(rect_of(items[j])).area()
                     - rect_of(items[i]).area() - rect_of(items[j]).area())
            if waste > worst:
                worst, seeds = waste, (i, j)
    left = [items[seeds[0]]]
    right = [items[seeds[1]]]
    left_rect = rect_of(items[seeds[0]])
    right_rect = rect_of(items[seeds[1]])
    minimum = max(1, capacity // 2)
    rest = [item for index, item in enumerate(items) if index not in seeds]
    for index, item in enumerate(rest):
        remaining = len(rest) - index
        if len(left) + remaining <= minimum:
            left.append(item)
            left_rect = left_rect.union(rect_of(item))
            continue
        if len(right) + remaining <= minimum:
            right.append(item)
            right_rect = right_rect.union(rect_of(item))
            continue
        rect = rect_of(item)
        grow_left = left_rect.enlargement(rect)
        grow_right = right_rect.enlargement(rect)
        if (grow_left, left_rect.area(), len(left)) <= \
                (grow_right, right_rect.area(), len(right)):
            left.append(item)
            left_rect = left_rect.union(rect)
        else:
            right.append(item)
            right_rect = right_rect.union(rect)
    return left, right


def rtree_sync_join(atree, dtree, parent_child=False, collect=True,
                    stats=None):
    """Structural join by synchronized R-tree traversal [6, 17].

    Recurses over pairs of nodes whose MBRs can still produce
    ancestor-descendant matches; at leaf level the candidates are compared
    directly.  No ordering is available, so an in-memory stack cannot be
    used — this is the "less robust" behaviour the paper alludes to: the
    pair frontier can blow up on heavily nested data.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    if not atree.root_id or not dtree.root_id:
        return ([] if collect else None), stats
    pool_a, pool_d = atree.pool, dtree.pool
    frontier = [(atree.root_id, dtree.root_id)]
    while frontier:
        a_id, d_id = frontier.pop()
        with pool_a.pinned(a_id) as a_page:
            a_is_leaf = isinstance(a_page, RTreeLeafPage)
            a_items = (list(a_page.records) if a_is_leaf
                       else list(zip(a_page.rects, a_page.children)))
        with pool_d.pinned(d_id) as d_page:
            d_is_leaf = isinstance(d_page, RTreeLeafPage)
            d_items = (list(d_page.records) if d_is_leaf
                       else list(zip(d_page.rects, d_page.children)))
        if a_is_leaf and d_is_leaf:
            for descendant in d_items:
                stats.count(1)
                for ancestor in a_items:
                    if (ancestor.start < descendant.start
                            and descendant.end < ancestor.end):
                        sink.emit(ancestor, descendant)
            stats.count(len(a_items))
        elif a_is_leaf:
            a_rect = _leaf_rect(a_items)
            for rect, child in d_items:
                if _join_compatible(a_rect, rect):
                    frontier.append((a_id, child))
        elif d_is_leaf:
            d_rect = _leaf_rect(d_items)
            for rect, child in a_items:
                if _join_compatible(rect, d_rect):
                    frontier.append((child, d_id))
        else:
            for a_rect, a_child in a_items:
                for d_rect, d_child in d_items:
                    if _join_compatible(a_rect, d_rect):
                        frontier.append((a_child, d_child))
    return (sink.pairs if collect else None), stats


def _join_compatible(a_rect, d_rect):
    """Can some a in ``a_rect`` contain some d in ``d_rect``?

    Requires a.start < d.start and d.end < a.end for some pair, i.e. the
    minimal a.start must lie before the maximal d.start and the maximal
    a.end after the minimal d.end.
    """
    return (a_rect.min_start < d_rect.max_start
            and d_rect.min_end < a_rect.max_end)
