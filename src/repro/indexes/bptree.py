"""A disk-based B+-tree keyed on element ``start`` positions.

This is the index behind the ``B+`` baseline (Chien et al., VLDB 2002): each
joining element set is indexed on its ``start`` attribute, leaves are linked
left to right, and the join uses range probes to skip elements.  The tree is
fully dynamic (insert and delete with redistribution and merging) and every
node is one buffer-pool page.

Keys must be unique within one tree: element sets extracted from a single
document have unique start positions by construction (Section 2.1), and the
library assigns disjoint region ranges to different documents.
"""

import struct
from bisect import bisect_right
from itertools import starmap

from repro.storage.errors import PageDecodeError, StorageError
from repro.storage.pagedlist import RecordCursor, RecordPage
from repro.storage.pages import PAGE_HEADER_SIZE, Page, register_page_type


class BPlusTreeError(StorageError):
    """B+-tree protocol violations (duplicate keys, corrupt structure)."""


@register_page_type
class BPlusLeafPage(RecordPage):
    """Leaf page: start-ordered :class:`ElementEntry` records + next link."""

    TYPE_ID = 3


@register_page_type
class BPlusInternalPage(Page):
    """Internal page: ``m`` keys and ``m + 1`` child page ids.

    Key semantics follow Definition 4(3): all keys in the subtree at
    ``children[i]`` are < ``keys[i]``; all keys in ``children[i+1]`` are
    >= ``keys[i]``.
    """

    TYPE_ID = 4
    _HEADER = struct.Struct("<HI")  # key count, first child
    _PAIR = struct.Struct("<iI")  # key, right child

    def __init__(self, keys=None, children=None):
        self.keys = list(keys) if keys else []
        self.children = list(children) if children else []

    @classmethod
    def capacity(cls, page_size):
        """Maximum number of keys per internal page."""
        return (page_size - PAGE_HEADER_SIZE - cls._HEADER.size) \
            // cls._PAIR.size

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.keys),
                               self.children[0] if self.children else 0)
        body = b"".join(starmap(self._PAIR.pack, zip(
            self.keys, self.children[1:], strict=True)))
        out[self._HEADER.size : self._HEADER.size + len(body)] = body

    @classmethod
    def decode_payload(cls, data, page_size):
        count, first_child = cls._HEADER.unpack_from(data, 0)
        end = cls._HEADER.size + count * cls._PAIR.size
        if end > len(data):
            raise PageDecodeError(
                "B+-tree internal page claims %d keys but the payload "
                "holds at most %d"
                % (count, (len(data) - cls._HEADER.size) // cls._PAIR.size)
            )
        columns = zip(*cls._PAIR.iter_unpack(data[cls._HEADER.size : end]))
        keys, children = columns if count else ((), ())
        page = cls.__new__(cls)
        page.keys = list(keys)
        page.children = [first_child, *children]
        return page

    def child_index_for(self, key):
        """Index of the child subtree to descend into for ``key``."""
        return bisect_right(self.keys, key)


#: Below every start: the key that descends to the leftmost leaf.
MIN_KEY = -(2 ** 31)
#: The key range ``[low, high)`` under a root: every key.
_ROOT_RANGE = (float("-inf"), float("inf"))


class Finger:
    """The last root-to-leaf path of one tree, shared by a join's probes.

    ``path`` holds ``(page, low, high, memo)`` from the root down: a
    decoded page, the key range ``[low, high)`` under it, and a dict in
    which a search through that node keeps the other pages it read for
    it, by page id — the XR-tree's stab-list pages
    (:func:`~repro.indexes.xrtree.stablist.collect_stabbed`).  A memo is
    dropped with its node when :func:`descend` leaves that node.  The
    finger holds no pin, and its pages are read once: it lives for one
    join, over a tree that does not change meanwhile.

    ``slot`` is where the last XR-tree FindAncestors through the finger
    stopped in the path's leaf — the slot of the first entry at or past
    its point.  XR-stack reads on from there, through
    ``path[-1][0].records[slot:]`` and then each later leaf: the re-seek
    past the point, with no descent and no cursor.
    """

    __slots__ = ("path", "slot")

    def __init__(self):
        self.path = []
        self.slot = 0


def descend(pool, root_id, key, finger, pin_leaf=False):
    """The leaf covering ``key`` in the tree rooted at ``root_id``.

    The one root-to-leaf descent of :class:`BPlusTree` and
    :class:`~repro.indexes.xrtree.XRTree`, through a :class:`Finger`
    updated in place to end at the returned leaf.  The path entries whose
    range misses ``key`` are dropped, the deepest one covering it is kept,
    and only the pages below it are requested, each fetched and unpinned
    in turn.  A new finger is a descent from the root.

    ``pin_leaf`` (with a new finger: the write paths) leaves the leaf
    pinned for the caller to release.
    """
    path = finger.path
    while path and not path[-1][1] <= key < path[-1][2]:
        path.pop()
    fetched = None
    if path:
        page, low, high, _memo = path[-1]
    else:
        fetched = page = pool.fetch(root_id)
        low, high = _ROOT_RANGE
        path.append((page, low, high, {}))
    while not isinstance(page, RecordPage):
        index = page.child_index_for(key)
        if index:
            low = page.keys[index - 1]
        if index < len(page.keys):
            high = page.keys[index]
        child_id = page.children[index]
        if fetched is not None:
            pool.unpin(fetched)
        fetched = page = pool.fetch(child_id)
        path.append((page, low, high, {}))
    if fetched is not None and not pin_leaf:
        pool.unpin(fetched)
    return page


def descend_path(pool, root_id, key):
    """``(path, leaf)`` for the write paths: the leaf covering ``key``,
    pinned, and ``(page_id, child_index)`` of each internal node above it,
    root first (those pages are left unpinned)."""
    finger = Finger()
    leaf = descend(pool, root_id, key, finger, pin_leaf=True)
    return [(node.page_id, node.child_index_for(key))
            for node, _low, _high, _memo in finger.path[:-1]], leaf


def cursor_at(pool, root_id, key, finger=None, after=False):
    """Cursor at the first entry with ``start >= key`` (``start > key``
    with ``after``), reached through ``finger`` (see :func:`descend`).
    The cursor starts on the leaf the descent returned: the seek requests
    no page but the descent's."""
    if not root_id:
        return RecordCursor(pool, 0)
    leaf = descend(pool, root_id, key, Finger() if finger is None else finger)
    slot = leaf.slot_after(key) if after else leaf.slot_of(key)
    return RecordCursor(pool, leaf.page_id, slot, leaf)


def search_entry(pool, root_id, key):
    """The entry whose start equals ``key``, or None."""
    if not root_id:
        return None
    leaf = descend(pool, root_id, key, Finger())
    slot = leaf.slot_of(key)
    if slot < len(leaf.records) and leaf.records[slot].start == key:
        return leaf.records[slot]
    return None


def items(tree):
    """An iterator over every entry of ``tree`` in key order — a B+-tree,
    an XR-tree or any other input with a ``first()`` cursor.  Both trees
    also bind it as their ``items`` method."""
    return iter(tree.first())


def _balanced_chunks(items, per_chunk, minimum):
    """Split ``items`` into runs of ``per_chunk``, balancing the last two
    runs so that no run falls below ``minimum`` (except a lone run)."""
    chunks = [items[i : i + per_chunk] for i in range(0, len(items), per_chunk)]
    if len(chunks) > 1 and len(chunks[-1]) < minimum:
        combined = chunks[-2] + chunks[-1]
        half = len(combined) // 2
        chunks[-2] = combined[:half]
        chunks[-1] = combined[half:]
    return chunks


class BPlusTree:
    """Dynamic external-memory B+-tree over element entries."""

    def __init__(self, pool, leaf_capacity=None, internal_capacity=None):
        self.pool = pool
        self.root_id = 0
        self.height = 0  # 0 = empty; 1 = root is a leaf
        self.size = 0
        self.leaf_capacity = leaf_capacity or BPlusLeafPage.capacity(pool.page_size)
        self.internal_capacity = (
            internal_capacity or BPlusInternalPage.capacity(pool.page_size)
        )
        if self.leaf_capacity < 2 or self.internal_capacity < 2:
            raise BPlusTreeError("page size too small for B+-tree nodes")

    # -- bulk loading ----------------------------------------------------------

    def bulk_load(self, entries, fill_factor=1.0):
        """Build the tree bottom-up from start-sorted ``entries``."""
        if self.root_id:
            raise BPlusTreeError("bulk_load requires an empty tree")
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError("fill factor must be in (0, 1]")
        entries = list(entries)
        for left, right in zip(entries, entries[1:]):
            if right.start <= left.start:
                raise BPlusTreeError("bulk_load input must be sorted on start")
        if not entries:
            return
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        chunks = _balanced_chunks(entries, per_leaf, self._min_leaf())
        level = []  # (first_key, page_id)
        prev_page = None
        for chunk in chunks:
            page = self.pool.new_page(BPlusLeafPage(chunk))
            level.append((chunk[0].start, page.page_id))
            if prev_page is not None:
                prev_page.next_id = page.page_id
                self.pool.unpin(prev_page, dirty=True)
            prev_page = page
        if prev_page is not None:
            self.pool.unpin(prev_page, dirty=True)
        self.size = len(entries)
        self.height = 1
        per_internal = max(2, int(self.internal_capacity * fill_factor))
        while len(level) > 1:
            groups = _balanced_chunks(level, per_internal + 1,
                                      self._min_internal() + 1)
            next_level = []
            for group in groups:
                keys = [key for key, _ in group[1:]]
                children = [pid for _, pid in group]
                page = self.pool.new_page(BPlusInternalPage(keys, children))
                next_level.append((group[0][0], page.page_id))
                self.pool.unpin(page, dirty=True)
            level = next_level
            self.height += 1
        self.root_id = level[0][1]

    # -- searching ---------------------------------------------------------------

    def search(self, key):
        """Return the entry with ``start == key`` or None."""
        return search_entry(self.pool, self.root_id, key)

    def seek(self, key, finger=None):
        """Cursor positioned at the first entry with ``start >= key``.

        ``finger`` — a :class:`Finger` a join starts new and passes to
        each of its probes on this tree — keeps the last root-to-leaf path,
        so a probe requests only the pages below its deepest node still
        covering ``key`` (:func:`descend`).
        """
        return cursor_at(self.pool, self.root_id, key, finger)

    def seek_after(self, key, finger=None):
        """Cursor at the first entry with ``start > key`` (open-ended probe).

        This is the primitive both skipping joins use: "locate the element
        having the smallest start value that is larger than" a bound.
        ``finger`` as for :meth:`seek`.
        """
        return cursor_at(self.pool, self.root_id, key, finger, after=True)

    def first(self):
        """Cursor at the smallest key."""
        return cursor_at(self.pool, self.root_id, MIN_KEY)

    def range_scan(self, low, high):
        """Yield entries with ``low <= start <= high`` in key order."""
        for entry in self.seek(low):
            if entry.start > high:
                return
            yield entry

    items = items

    # -- insertion ---------------------------------------------------------------

    def insert(self, entry):
        """Insert one element entry; raises on a duplicate start key."""
        if not self.root_id:
            page = self.pool.new_page(BPlusLeafPage([entry]))
            self.root_id = page.page_id
            self.height = 1
            self.pool.unpin(page, dirty=True)
            self.size = 1
            return
        path, leaf = descend_path(self.pool, self.root_id, entry.start)
        slot = leaf.slot_of(entry.start)
        if slot < len(leaf.records) \
                and leaf.records[slot].start == entry.start:
            self.pool.unpin(leaf)
            raise BPlusTreeError("duplicate key %d" % entry.start)
        leaf.records.insert(slot, entry)
        self.size += 1
        if len(leaf.records) <= self.leaf_capacity:
            self.pool.unpin(leaf, dirty=True)
            return
        # Split the leaf and propagate.
        mid = len(leaf.records) // 2
        right = BPlusLeafPage(leaf.records[mid:], leaf.next_id)
        leaf.records = leaf.records[:mid]
        right_page = self.pool.new_page(right)
        leaf.next_id = right_page.page_id
        separator = right.records[0].start
        new_child = right_page.page_id
        self.pool.unpin(right_page, dirty=True)
        self.pool.unpin(leaf, dirty=True)
        self._insert_into_parent(path, separator, new_child)

    def _insert_into_parent(self, path, key, right_child_id):
        while path:
            parent_id, index = path.pop()
            parent = self.pool.fetch(parent_id)
            parent.keys.insert(index, key)
            parent.children.insert(index + 1, right_child_id)
            if len(parent.keys) <= self.internal_capacity:
                self.pool.unpin(parent, dirty=True)
                return
            mid = len(parent.keys) // 2
            up_key = parent.keys[mid]
            right = BPlusInternalPage(
                parent.keys[mid + 1 :], parent.children[mid + 1 :]
            )
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[: mid + 1]
            right_page = self.pool.new_page(right)
            key = up_key
            right_child_id = right_page.page_id
            self.pool.unpin(right_page, dirty=True)
            self.pool.unpin(parent, dirty=True)
        # Root split.
        new_root = self.pool.new_page(
            BPlusInternalPage([key], [self.root_id, right_child_id])
        )
        self.root_id = new_root.page_id
        self.height += 1
        self.pool.unpin(new_root, dirty=True)

    # -- deletion ------------------------------------------------------------------

    def delete(self, key):
        """Delete the entry with ``start == key``; returns it, or None."""
        if not self.root_id:
            return None
        path, leaf = descend_path(self.pool, self.root_id, key)
        slot = leaf.slot_of(key)
        if slot >= len(leaf.records) or leaf.records[slot].start != key:
            self.pool.unpin(leaf)
            return None
        removed = leaf.records.pop(slot)
        self.size -= 1
        self._rebalance_leaf(path, leaf)
        return removed

    def _min_leaf(self):
        return self.leaf_capacity // 2

    def _min_internal(self):
        return self.internal_capacity // 2

    def _rebalance_leaf(self, path, leaf):
        if not path or len(leaf.records) >= self._min_leaf():
            if not path and not leaf.records:
                # Tree became empty.
                self.pool.free_page(leaf)
                self.root_id = 0
                self.height = 0
                return
            self.pool.unpin(leaf, dirty=True)
            return
        parent_id, index = path[-1]
        parent = self.pool.fetch(parent_id)
        # Try borrowing from the right sibling, then the left one.
        if index + 1 < len(parent.children):
            sibling = self.pool.fetch(parent.children[index + 1])
            if len(sibling.records) > self._min_leaf():
                leaf.records.append(sibling.records.pop(0))
                parent.keys[index] = sibling.records[0].start
                self.pool.unpin(sibling, dirty=True)
                self.pool.unpin(parent, dirty=True)
                self.pool.unpin(leaf, dirty=True)
                return
            self.pool.unpin(sibling)
        if index > 0:
            sibling = self.pool.fetch(parent.children[index - 1])
            if len(sibling.records) > self._min_leaf():
                leaf.records.insert(0, sibling.records.pop())
                parent.keys[index - 1] = leaf.records[0].start
                self.pool.unpin(sibling, dirty=True)
                self.pool.unpin(parent, dirty=True)
                self.pool.unpin(leaf, dirty=True)
                return
            self.pool.unpin(sibling)
        # Merge with a sibling (prefer merging into the left one).
        if index > 0:
            left = self.pool.fetch(parent.children[index - 1])
            left.records.extend(leaf.records)
            left.next_id = leaf.next_id
            self.pool.free_page(leaf)
            self.pool.unpin(left, dirty=True)
            drop_index = index - 1
        else:
            right = self.pool.fetch(parent.children[index + 1])
            leaf.records.extend(right.records)
            leaf.next_id = right.next_id
            self.pool.free_page(right)
            self.pool.unpin(leaf, dirty=True)
            drop_index = index
        self.pool.unpin(parent)
        self._delete_from_internal(path[:-1], parent_id, drop_index)

    def _delete_from_internal(self, path, page_id, key_index):
        """Remove ``keys[key_index]`` and ``children[key_index + 1]``."""
        page = self.pool.fetch(page_id)
        page.keys.pop(key_index)
        page.children.pop(key_index + 1)
        if not path:
            if not page.keys:
                # Root with a single child: shrink the tree.
                new_root = page.children[0]
                self.pool.free_page(page)
                self.root_id = new_root
                self.height -= 1
            else:
                self.pool.unpin(page, dirty=True)
            return
        if len(page.keys) >= self._min_internal():
            self.pool.unpin(page, dirty=True)
            return
        parent_id, index = path[-1]
        parent = self.pool.fetch(parent_id)
        if index + 1 < len(parent.children):
            sibling = self.pool.fetch(parent.children[index + 1])
            if len(sibling.keys) > self._min_internal():
                page.keys.append(parent.keys[index])
                parent.keys[index] = sibling.keys.pop(0)
                page.children.append(sibling.children.pop(0))
                self.pool.unpin(sibling, dirty=True)
                self.pool.unpin(parent, dirty=True)
                self.pool.unpin(page, dirty=True)
                return
            self.pool.unpin(sibling)
        if index > 0:
            sibling = self.pool.fetch(parent.children[index - 1])
            if len(sibling.keys) > self._min_internal():
                page.keys.insert(0, parent.keys[index - 1])
                parent.keys[index - 1] = sibling.keys.pop()
                page.children.insert(0, sibling.children.pop())
                self.pool.unpin(sibling, dirty=True)
                self.pool.unpin(parent, dirty=True)
                self.pool.unpin(page, dirty=True)
                return
            self.pool.unpin(sibling)
        # Merge internals.
        if index > 0:
            left = self.pool.fetch(parent.children[index - 1])
            left.keys.append(parent.keys[index - 1])
            left.keys.extend(page.keys)
            left.children.extend(page.children)
            self.pool.free_page(page)
            self.pool.unpin(left, dirty=True)
            drop_index = index - 1
        else:
            right = self.pool.fetch(parent.children[index + 1])
            page.keys.append(parent.keys[index])
            page.keys.extend(right.keys)
            page.children.extend(right.children)
            self.pool.free_page(right)
            self.pool.unpin(page, dirty=True)
            drop_index = index
        self.pool.unpin(parent)
        self._delete_from_internal(path[:-1], parent_id, drop_index)

    # -- diagnostics --------------------------------------------------------------

    def check(self, check_fill=True):
        """Validate structural invariants; raises :class:`BPlusTreeError`.

        Checks key ordering, separator correctness, fill bounds, consistent
        leaf depth, leaf sibling links and the stored ``size``.
        ``check_fill=False`` skips the minimum-occupancy bounds (loose
        fill-factor bulk loads legitimately leave slack).
        """
        if not self.root_id:
            if self.size:
                raise BPlusTreeError("empty tree with non-zero size")
            return True
        leaves = []
        count = [0]

        def _walk(page_id, low, high, depth):
            with self.pool.pinned(page_id) as page:
                if isinstance(page, BPlusLeafPage):
                    records = page.records
                    if any(right.start <= left.start
                           for left, right in zip(records, records[1:])):
                        raise BPlusTreeError("leaf keys unsorted or duplicated")
                    for record in records:
                        if not (low <= record.start
                                and (high is None or record.start < high)):
                            raise BPlusTreeError(
                                "leaf key %d outside (%s, %s)"
                                % (record.start, low, high)
                            )
                    if depth != self.height:
                        raise BPlusTreeError("leaf at depth %d != %d"
                                             % (depth, self.height))
                    if check_fill and page_id != self.root_id and \
                            len(page.records) < self._min_leaf():
                        raise BPlusTreeError("underfull leaf %d" % page_id)
                    if len(page.records) > self.leaf_capacity:
                        raise BPlusTreeError("overfull leaf %d" % page_id)
                    count[0] += len(page.records)
                    leaves.append((page_id, page.next_id))
                    return
                if page.keys != sorted(set(page.keys)):
                    raise BPlusTreeError("internal keys unsorted or duplicated")
                if len(page.children) != len(page.keys) + 1:
                    raise BPlusTreeError("child count mismatch")
                if check_fill and page_id != self.root_id \
                        and len(page.keys) < self._min_internal():
                    raise BPlusTreeError("underfull internal %d" % page_id)
                if len(page.keys) > self.internal_capacity:
                    raise BPlusTreeError("overfull internal %d" % page_id)
                bounds = [low] + list(page.keys) + [high]
                children = list(page.children)
            for child, (lo, hi) in zip(children, zip(bounds, bounds[1:])):
                _walk(child, lo, hi if hi is not None else None, depth + 1)

        _walk(self.root_id, -(2 ** 31), None, 1)
        if count[0] != self.size:
            raise BPlusTreeError("size %d != %d entries" % (self.size, count[0]))
        for (_, next_id), (right_id, _) in zip(leaves, leaves[1:]):
            if next_id != right_id:
                raise BPlusTreeError("broken leaf chain")
        if leaves and leaves[-1][1] != 0:
            raise BPlusTreeError("last leaf has a next link")
        return True

    def page_count(self):
        """Number of pages (internal + leaf) reachable from the root."""
        if not self.root_id:
            return 0
        total = [0]

        def _walk(page_id):
            total[0] += 1
            with self.pool.pinned(page_id) as page:
                children = (
                    list(page.children)
                    if isinstance(page, BPlusInternalPage)
                    else []
                )
            for child in children:
                _walk(child)

        _walk(self.root_id)
        return total[0]
