"""The XR-tree: structure (Section 3), maintenance (Section 4) and the
structural search operations FindDescendants / FindAncestors (Section 5.1).

The tree is a B+-tree on element start positions whose internal nodes carry
stab lists; see :mod:`repro.indexes.xrtree.pages` for the layouts and
:mod:`repro.indexes.xrtree.stablist` for stab-list maintenance.  All node
accesses go through a buffer pool, so every operation's I/O is measurable.

Keys must be unique within one tree (start positions of a single document are
unique by construction; the library gives separate documents disjoint region
ranges).
"""

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import attrgetter, le, lt

from repro.indexes.bptree import (
    MIN_KEY,
    Finger,
    cursor_at,
    descend,
    descend_path,
    items,
    search_entry,
)
from repro.indexes.xrtree.pages import (
    NIL,
    StabDirectoryPage,
    StabListPage,
    XRInternalPage,
    XRLeafPage,
)
from repro.indexes.xrtree.stablist import StabList, collect_stabbed
from repro.storage.errors import StorageError
from repro.storage.pages import ElementEntry

_START = attrgetter("start")
_END = attrgetter("end")
_IN_STAB_LIST = attrgetter("in_stab_list")
#: The lowest bound a leaf's key range can have: the leftmost leaf's.
_BELOW_ALL = float("-inf")


class XRTreeError(StorageError):
    """XR-tree protocol violations (duplicate keys, corrupt structure)."""


class XRTree:
    """A dynamic external-memory XR-tree (Definition 4).

    ``optimize_split_keys`` enables the paper's split-key choice: when a leaf
    splits, any value in ``(last-left-start, first-right-start]`` is a valid
    separator, and picking ``first-right-start - 1`` (when the gap allows)
    avoids newly stabbing the first right element — the "79 instead of 80"
    optimization of Section 3.2.
    """

    #: Maintenance events tallied in ``maintenance_stats``.
    _EVENTS = ("leaf_splits", "internal_splits", "leaf_borrows",
               "leaf_merges", "internal_rotations", "internal_merges",
               "push_downs", "absorptions", "root_splits", "root_shrinks")

    def __init__(self, pool, leaf_capacity=None, internal_capacity=None,
                 optimize_split_keys=True):
        self.pool = pool
        self.root_id = 0
        self.height = 0  # 0 = empty, 1 = root is a leaf
        self.size = 0
        self.optimize_split_keys = optimize_split_keys
        self.leaf_capacity = leaf_capacity or XRLeafPage.capacity(pool.page_size)
        self.internal_capacity = (
            internal_capacity or XRInternalPage.capacity(pool.page_size)
        )
        if self.leaf_capacity < 2 or self.internal_capacity < 2:
            raise XRTreeError("page size too small for XR-tree nodes")
        #: Counts of structural maintenance events, for observability and
        #: for tests that must prove a specific code path executed.
        self.maintenance_stats = {event: 0 for event in self._EVENTS}

    def _tick(self, event):
        self.maintenance_stats[event] += 1

    # ------------------------------------------------------------------ descent

    def search(self, key):
        """Return the entry whose start equals ``key``, or None."""
        return search_entry(self.pool, self.root_id, key)

    def seek(self, key, finger=None):
        """Cursor at the first entry with ``start >= key``.

        ``finger`` — a :class:`~repro.indexes.bptree.Finger` a join starts
        new and passes to each of its probes on this tree — keeps the last
        root-to-leaf path, so a probe requests only the pages below its
        deepest node still covering ``key``
        (:func:`repro.indexes.bptree.descend`), and the cursor starts on the
        leaf the descent returned.  After ``find_ancestors(key, finger=f)``
        the path ends at ``key``'s leaf already, and ``seek(key, finger=f)``
        requests no page.
        """
        return cursor_at(self.pool, self.root_id, key, finger)

    def seek_after(self, key, finger=None):
        """Cursor at the first entry with ``start > key`` — the open-ended
        range-probe variant of FindDescendants used by XR-stack to skip
        descendants (Section 5.2).  ``finger`` as for :meth:`seek`."""
        return cursor_at(self.pool, self.root_id, key, finger, after=True)

    def first(self):
        """Cursor at the smallest key."""
        return cursor_at(self.pool, self.root_id, MIN_KEY)

    items = items

    # ----------------------------------------------- Section 5.1 search operations

    def find_descendants(self, ancestor_start, ancestor_end, counter=None,
                         required_level=None):
        """Algorithm 3: all indexed elements nested inside the given region.

        A plain range query ``ancestor_start < s < ancestor_end`` over the
        leaf level; stab lists are never touched.  ``required_level``
        restricts the result to children (FindChildren, Section 5.3).
        Worst-case I/O is ``O(log_F N + R/B)`` (Theorem 3).
        """
        results = []
        for entry in self.seek_after(ancestor_start):
            if counter is not None:
                counter.count(1)
            if entry.start >= ancestor_end:
                break
            if required_level is None or entry.level == required_level:
                results.append(entry)
        return results

    def find_ancestors(self, point, counter=None, after_start=None,
                       required_level=None, finger=None):
        """Algorithm 4: all indexed elements stabbed by ``point``.

        The stab list of every internal node on the root-to-leaf path is
        searched (Algorithm 5, via the stored ``(ps, pe)`` guards and the
        ps directory); at the leaf, elements stabbed by ``point`` whose
        ``InStabList`` flag is off are output.  Worst-case I/O is
        ``O(log_F N + R)`` (Theorem 4).

        ``after_start`` keeps only ancestors with ``start > after_start`` —
        the variant XR-stack uses to fetch the ancestors starting at or
        after CurA; it reads nothing at or before ``after_start``.  When
        the leaf covering ``point`` also covers ``after_start`` (for
        ``after_start=None``: when it is the leftmost leaf), every start
        in between lies in that leaf, and the leaf alone answers: no stab
        list is searched, and the I/O is the descent's pages only.
        ``required_level`` restricts to the parent (FindParent, Section 5.3).
        ``finger`` as for :meth:`seek`: neither the path's pages kept on it
        nor the stab-list pages its nodes' memos hold are requested again,
        and the answer and the scan-counter charges do not depend on it.
        A call whose point the finger's leaf still covers makes no descent
        at all.  The call leaves ``finger.path`` ending at ``point``'s leaf
        and ``finger.slot`` at the first entry there with ``start >=
        point``: reading on from that slot, then each later leaf, is
        ``seek(point)``'s scan, with no page requested for the first leaf.
        """
        if not self.root_id:
            return []
        finger = Finger() if finger is None else finger
        path = finger.path
        if not (path and path[-1][1] <= point < path[-1][2]):
            descend(self.pool, self.root_id, point, finger)
        leaf, low, _high, _memo = path[-1]
        # S2: only records before the query point can be stabbed, and only
        # those after ``after_start`` are wanted.  Both slots are located by
        # binary search within the leaf; the scan counter charges each
        # produced ancestor, not the in-page filtering — in-page work is
        # CPU, not a list scan, which is how the paper's XR counts stay
        # below the merge baselines'.
        records = leaf.records
        finger.slot = slot = bisect_left(records, point, key=_START)
        if after_start is None:
            first, floor = 0, _BELOW_ALL
        else:
            first = bisect_right(records, after_start, 0, slot, key=_START)
            floor = after_start
        records = records[first:slot]
        if low <= floor:
            # Every element has a leaf record, flagged or not, and every
            # start in (after_start, point) lies in this leaf.
            results = [entry for entry in records if point < entry.end]
            found = results
        else:
            results = []
            for node, _low, _high, memo in path[:-1]:
                results += collect_stabbed(self.pool, node, point, counter,
                                           after_start, memo)
            found = [entry for entry in records
                     if not entry.in_stab_list and point < entry.end]
            results += found
            results.sort(key=_START)
        if counter is not None and found:
            counter.count(len(found))
        if required_level is not None:
            results = [r for r in results if r.level == required_level]
        return results

    # --------------------------------------------------- Algorithm 1: insertion

    def insert(self, entries):
        """Insert one element entry, or a start-sorted run, a leaf at a
        time (Algorithm 1).

        A single entry is a run of one.  Each pass descends once to the leaf
        covering the run's next key and takes the run entries below that
        leaf's upper bound, up to the first overflow; see
        :meth:`_insert_leaf_run`.  A run that is not strictly ascending
        raises :class:`XRTreeError` with nothing changed; so does a key
        already stored, except that the entries placed in earlier leaves of
        the run stay (the tree is valid either way).
        """
        run = [entries] if isinstance(entries, ElementEntry) else list(entries)
        starts = [entry.start for entry in run]
        if any(right <= left for left, right in zip(starts, starts[1:])):
            raise XRTreeError("insert run must be strictly ascending on start")
        position = 0
        while position < len(run):
            position = self._insert_leaf_run(run, starts, position)

    def _insert_leaf_run(self, run, starts, position):
        """Place run entries from ``position`` on in the one leaf covering
        ``starts[position]``; returns the position the run goes on from.

        The entries are checked for duplicates before the leaf changes.  I1:
        each belongs to the first path node that stabs it — provably the
        top-most — and joins that node's stab list flagged.  The rest are
        spliced in at once.  I22 on overflow: a leaf whose last record is
        the run's, with at least ``d - 1`` more of the run still to come
        below its bound, is cut full and the next pass fills the new right
        leaf; any other leaf splits in the middle.  So the last cut of a
        run is balanced, every leaf keeps d..2d records, and a run of one
        splits exactly as a lone insert always has.
        """
        key = starts[position]
        if self.root_id:
            finger = Finger()
            leaf = descend(self.pool, self.root_id, key, finger, pin_leaf=True)
            path = [node for node, _low, _high, _memo in finger.path[:-1]]
            low, high = finger.path[-1][1:3]
        else:
            leaf = self.pool.new_page(XRLeafPage([]))
            self.root_id = leaf.page_id
            self.height = 1
            path, low, high = [], float("-inf"), float("inf")
        records = leaf.records
        # Up to the first overflow only: a split changes the path.
        stop = bisect_left(starts, high, position)
        taken = run[position : min(stop, position + self.leaf_capacity + 1
                                   - len(records))]
        appended = not records or records[-1].start < key
        if not appended:
            for entry in taken:
                slot = leaf.slot_of(entry.start)
                if slot < len(records) and records[slot].start == entry.start:
                    self.pool.unpin(leaf)
                    raise XRTreeError("duplicate key %d" % entry.start)
        owned = {}
        for index, entry in enumerate(taken):
            # Of the path's keys only the two bounding the leaf's range
            # [low, high) can stab an entry in it: most need no path walk.
            owner = None
            if entry.end >= high or entry.start == low:
                owner = next(node for node in path
                             if node.stabs(entry.start, entry.end))
            if entry.in_stab_list != (owner is not None):
                taken[index] = entry = entry.with_flag(owner is not None)
            if owner is not None:
                owned.setdefault(owner.page_id, []).append(entry)
        for owner_id, flagged in owned.items():
            owner = self.pool.fetch(owner_id)
            stab = StabList(self.pool, owner)
            for entry in flagged:
                stab.insert(entry)
            self.pool.unpin(owner, dirty=True)
        if appended:
            records.extend(taken)
        else:
            for entry in taken:
                records.insert(leaf.slot_of(entry.start), entry)
        self.size += len(taken)
        position += len(taken)
        if len(records) <= self.leaf_capacity:
            self.pool.unpin(leaf, dirty=True)
            return position
        self._tick("leaf_splits")
        to_come = stop - position
        if records[-1] is taken[-1] \
                and to_come >= max(self._min_leaf() - 1, 1):
            cut = self.leaf_capacity
        else:
            cut = len(records) // 2
        separator, right_id, stab_set = self._split_leaf(leaf, cut)
        self.pool.unpin(leaf, dirty=True)
        self._insert_into_parent(
            [(node.page_id, node.child_index_for(key)) for node in path],
            separator, right_id, stab_set)
        return position

    def _choose_separator(self, left_last_start, right_first_start):
        """Split-key choice between two leaf runs (Section 3.2)."""
        if (self.optimize_split_keys
                and right_first_start - 1 > left_last_start):
            return right_first_start - 1
        return right_first_start

    def _split_leaf(self, leaf, cut):
        """Split an overfull leaf before slot ``cut``; returns
        ``(separator, right_id, StabSet')``.

        Elements of either half that the new separator newly stabs get their
        ``InStabList`` flags turned on and are collected into ``StabSet'``
        for insertion into the parent's stab list (step I22).
        """
        right_records = leaf.records[cut:]
        leaf.records = leaf.records[:cut]
        separator = self._choose_separator(
            leaf.records[-1].start, right_records[0].start
        )
        stab_set = []
        for page_records in (leaf.records, right_records):
            for index, record in enumerate(page_records):
                if record.start > separator:
                    break
                if not record.in_stab_list and record.end >= separator:
                    flagged = record.with_flag(True)
                    page_records[index] = flagged
                    stab_set.append(flagged)
        right_page = self.pool.new_page(XRLeafPage(right_records, leaf.next_id))
        leaf.next_id = right_page.page_id
        right_id = right_page.page_id
        self.pool.unpin(right_page, dirty=True)
        return separator, right_id, stab_set

    def _insert_into_parent(self, path, key, right_child_id, stab_set):
        """Step I3: propagate ``(key, pointer, StabSet')`` up the tree."""
        while path:
            parent_id, index = path.pop()
            parent = self.pool.fetch(parent_id)
            parent.keys.insert(index, key)
            parent.ps.insert(index, NIL)
            parent.pe.insert(index, NIL)
            parent.children.insert(index + 1, right_child_id)
            stab = StabList(self.pool, parent)
            # The new key may take over the head of its right neighbour's
            # PSL (membership is derived from keys); refresh both.
            self._refresh_key_pspe(parent, stab, (index, index + 1))
            for record in stab_set:
                stab.insert(record)
            if len(parent.keys) <= self.internal_capacity:
                self.pool.unpin(parent, dirty=True)
                return
            # I32: split the internal node; its stab list splits with it and
            # elements stabbed by the key given up travel upward (Figure 5).
            self._tick("internal_splits")
            mid = len(parent.keys) // 2
            up_key = parent.keys[mid]
            up_stabs = stab.extract_stabbed(up_key)
            right_head, right_dir, right_count = stab.split_after(up_key)
            right_node = XRInternalPage(
                parent.keys[mid + 1 :], parent.children[mid + 1 :],
                sl_head=right_head, sl_dir=right_dir, sl_count=right_count,
            )
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[: mid + 1]
            right_page = self.pool.new_page(right_node)
            StabList(self.pool, parent).refresh_pspe()
            StabList(self.pool, right_page).refresh_pspe()
            key = up_key
            right_child_id = right_page.page_id
            stab_set = up_stabs
            self.pool.unpin(right_page, dirty=True)
            self.pool.unpin(parent, dirty=True)
        # I4: grow the tree taller.
        self._tick("root_splits")
        new_root = self.pool.new_page(
            XRInternalPage([key], [self.root_id, right_child_id])
        )
        stab = StabList(self.pool, new_root)
        for record in stab_set:
            stab.insert(record)
        self.root_id = new_root.page_id
        self.height += 1
        self.pool.unpin(new_root, dirty=True)

    def _refresh_key_pspe(self, node, stab, indices):
        """Recompute ``(ps, pe)`` for the given key indices from the chain."""
        for j in indices:
            if j >= len(node.keys):
                continue
            head = None
            for record in stab.iter_psl(j):
                head = record
                break
            if head is None:
                node.ps[j] = NIL
                node.pe[j] = NIL
            else:
                node.ps[j] = head.start
                node.pe[j] = head.end

    # ---------------------------------------------------- Algorithm 2: deletion

    def delete(self, start, end=None):
        """Delete by start position, a leaf run at a time (Algorithm 2).

        ``delete(k)`` removes the entry whose start equals ``k`` and returns
        it, or None when absent.  ``delete(lo, hi)`` removes every entry with
        ``lo <= start <= hi`` and returns them in start order.  Either way
        the cost follows what is removed: one descent per leaf the run
        touches, the run sliced out of that leaf at once, its flagged records
        dropped from their owners' stab lists, and the leaf rebalanced once.
        """
        removed = []
        self._delete_run(start, start if end is None else end, removed)
        if end is None:
            return removed[0] if removed else None
        return removed

    def _delete_run(self, low, high, removed):
        while low is not None and low <= high and self.root_id:
            low = self._delete_leaf_run(low, high, removed)

    def _delete_leaf_run(self, low, high, removed):
        """Cut ``[low, high]`` out of the one leaf covering ``low``.

        Appends the cut records to ``removed`` and returns the start at
        which the run may continue in the next leaf, or None when it ends
        here (or was finished from here).
        """
        path, leaf = descend_path(self.pool, self.root_id, low)
        first = leaf.slot_of(low)
        stop = leaf.slot_after(high)
        next_id = leaf.next_id if stop == len(leaf.records) else 0
        if first == stop:
            self.pool.unpin(leaf)
            if not next_id:
                return None
            # ``low`` falls between this leaf's last record and the next
            # leaf's first: the run, if any, starts there.
            with self.pool.pinned(next_id) as following:
                return following.records[0].start
        run = leaf.records[first:stop]
        del leaf.records[first:stop]
        # D1: remove the run's flagged elements from the nodes owning them.
        flagged = [r for r in run if r.in_stab_list]
        if flagged:
            self._remove_from_owners(path, flagged)
        self.size -= len(run)
        removed.extend(run)
        if next_id and run[-1].start < high and leaf.records:
            # A partly cut leaf with the run going on (only its first leaf
            # can be): topping it up now would borrow from the right just
            # what the run deletes next.  Finish the run, then come back to
            # whichever leaf holds the survivors by then.
            survivor = leaf.records[-1].start
            self.pool.unpin(leaf, dirty=True)
            self._delete_run(run[-1].start + 1, high, removed)
            path, leaf = descend_path(self.pool, self.root_id, survivor)
            self._rebalance_leaf(path, leaf)
            return None
        self._rebalance_leaf(path, leaf)
        return run[-1].start + 1 if next_id else None

    def _remove_from_owners(self, path, flagged):
        """Delete each flagged entry from the stab list of the highest path
        node stabbing it (one fetch per path node, not per entry)."""
        for page_id, _index in path:
            page = self.pool.fetch(page_id)
            stab = StabList(self.pool, page)
            below = []
            for entry in flagged:
                if page.stabs(entry.start, entry.end):
                    stab.delete(entry.start)
                else:
                    below.append(entry)
            self.pool.unpin(page, dirty=len(below) < len(flagged))
            flagged = below
            if not flagged:
                return
        raise XRTreeError(
            "flagged entry (%d, %d) found in no stab list on its path"
            % (flagged[0].start, flagged[0].end)
        )

    def _push_down_from(self, node, entry):
        """Re-home ``entry`` below ``node``: insert it into the stab list of
        the highest stabbing node in the subtree, or clear its leaf flag.

        Implements the "reinsert" of step D31: after a key change, elements
        no longer stabbed by a node sink to the highest node below that still
        stabs them (possibly all the way to a leaf flag reset).
        """
        self._tick("push_downs")
        index = node.child_index_for(entry.start)
        page = self.pool.fetch(node.children[index])
        while isinstance(page, XRInternalPage):
            if page.stabs(entry.start, entry.end):
                StabList(self.pool, page).insert(entry)
                self.pool.unpin(page, dirty=True)
                return
            child_id = page.children[page.child_index_for(entry.start)]
            self.pool.unpin(page)
            page = self.pool.fetch(child_id)
        slot = page.slot_of(entry.start)
        if slot >= len(page.records) \
                or page.records[slot].start != entry.start:
            self.pool.unpin(page)
            raise XRTreeError("entry %d missing from its leaf" % entry.start)
        page.records[slot] = page.records[slot].with_flag(False)
        self.pool.unpin(page, dirty=True)

    def _rehome_orphans(self, node, stab, candidates, key_indices):
        """Step D31 after a key of ``node`` was removed or replaced.

        ``candidates`` are the stab records the change can have orphaned —
        the changed key's own PSL, read before the change: a record whose
        primary key survives is still stabbed.  Those no key of ``node``
        stabs any more leave ``SL(node)`` and sink below it; ``(ps, pe)`` is
        recomputed for ``key_indices`` only, the keys whose PSLs the change
        can have re-headed.
        """
        orphans = [r for r in candidates if not node.stabs(r.start, r.end)]
        for record in orphans:
            stab.delete(record.start)
        self._refresh_key_pspe(node, stab, key_indices)
        for record in orphans:
            self._push_down_from(node, record)

    def _absorb_newly_stabbed(self, parent, leaf_pages):
        """Flag and lift leaf elements newly stabbed by a changed separator.

        After a separator key change only elements of the two involved leaves
        can become newly stabbed (their flags are off, so no other key
        anywhere stabs them); they enter ``SL(parent)`` — the only node
        holding the new key.
        """
        stab = StabList(self.pool, parent)
        for leaf in leaf_pages:
            changed = False
            for index, record in enumerate(leaf.records):
                if not record.in_stab_list and parent.stabs(record.start,
                                                            record.end):
                    flagged = record.with_flag(True)
                    leaf.records[index] = flagged
                    stab.insert(flagged)
                    changed = True
                    self._tick("absorptions")
            if changed:
                leaf.mark_dirty()

    def _min_leaf(self):
        return self.leaf_capacity // 2

    def _min_internal(self):
        return self.internal_capacity // 2

    def _rebalance_leaf(self, path, leaf):
        """Steps D2x, once per leaf: top an underfull leaf up from a sibling
        under a single separator change, or merge it away."""
        if not path:
            if not leaf.records:
                self.pool.free_page(leaf)
                self.root_id = 0
                self.height = 0
            else:
                self.pool.unpin(leaf, dirty=True)
            return
        need = self._min_leaf() - len(leaf.records)
        if need <= 0:
            self.pool.unpin(leaf, dirty=True)
            return
        parent_id, index = path[-1]
        parent = self.pool.fetch(parent_id)
        # D22: redistribution with a sibling that can spare what the leaf
        # needs, preferring the right one.  A leaf the run emptied is merged
        # away instead: refilling it moves records that a continuing run
        # deletes next, and dropping it costs the parent only the key.
        sides = (index + 1, index - 1) if leaf.records else ()
        for side in sides:
            if not 0 <= side < len(parent.children):
                continue
            sibling = self.pool.fetch(parent.children[side])
            if len(sibling.records) - need < self._min_leaf():
                self.pool.unpin(sibling)
                continue
            self._tick("leaf_borrows")
            if side > index:
                leaf.records.extend(sibling.records[:need])
                del sibling.records[:need]
                left, right = leaf, sibling
            else:
                leaf.records[:0] = sibling.records[-need:]
                del sibling.records[-need:]
                left, right = sibling, leaf
            self._replace_separator(
                parent, min(index, side), left, right,
                self._choose_separator(left.records[-1].start,
                                       right.records[0].start),
            )
            self.pool.unpin(sibling, dirty=True)
            self.pool.unpin(parent, dirty=True)
            self.pool.unpin(leaf, dirty=True)
            return
        # D23: merge with a sibling (into the left node of the pair).
        self._tick("leaf_merges")
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

    def _replace_separator(self, parent, key_index, left_leaf, right_leaf,
                           new_key):
        """Replace ``parent.keys[key_index]`` after a leaf redistribution.

        Handles both stab-list consequences (Section 4.2): elements of
        ``SL(parent)`` no longer stabbed sink down (to leaf flags), and leaf
        elements newly stabbed by the new separator rise into ``SL(parent)``.
        """
        if parent.keys[key_index] == new_key:
            return
        stab = StabList(self.pool, parent)
        psl = list(stab.iter_psl(key_index))
        parent.keys[key_index] = new_key
        parent.mark_dirty()
        # The moved boundary also re-divides this PSL and its right
        # neighbour's between the two keys.
        self._rehome_orphans(parent, stab, psl, (key_index, key_index + 1))
        self._absorb_newly_stabbed(parent, (left_leaf, right_leaf))

    def _delete_from_internal(self, path, page_id, key_index):
        """Step D3: remove ``keys[key_index]``/``children[key_index + 1]``
        from an internal node, then rebalance upward as needed."""
        page = self.pool.fetch(page_id)
        stab = StabList(self.pool, page)
        psl = list(stab.iter_psl(key_index))
        page.keys.pop(key_index)
        page.ps.pop(key_index)
        page.pe.pop(key_index)
        page.children.pop(key_index + 1)
        # D31: survivors of the removed key's PSL join the next key's,
        # which now sits at ``key_index``.
        self._rehome_orphans(page, stab, psl, (key_index,))
        if not path:
            if not page.keys:
                # D4: shorten the tree. The stab list must be empty now —
                # a node with no keys stabs nothing.
                self._tick("root_shrinks")
                new_root_id = page.children[0]
                if page.sl_count:
                    raise XRTreeError("empty root still owns stab records")
                self.pool.free_page(page)
                self.root_id = new_root_id
                self.height -= 1
            else:
                self.pool.unpin(page, dirty=True)
            return
        need = self._min_internal() - len(page.keys)
        if need <= 0:
            self.pool.unpin(page, dirty=True)
            return
        parent_id, index = path[-1]
        parent = self.pool.fetch(parent_id)
        # D32: redistribution between internal nodes, as many keys as the
        # node needs in one rotation, preferring the right sibling.
        for side in (index + 1, index - 1):
            if not 0 <= side < len(parent.children):
                continue
            sibling = self.pool.fetch(parent.children[side])
            if len(sibling.keys) - need < self._min_internal():
                self.pool.unpin(sibling)
                continue
            self._tick("internal_rotations")
            self._rotate_internal(parent, min(index, side), page, sibling,
                                  need, from_right=side > index)
            self.pool.unpin(sibling, dirty=True)
            self.pool.unpin(parent, dirty=True)
            self.pool.unpin(page, dirty=True)
            return
        # D33: merge internal nodes (into the left node of the pair).
        self._tick("internal_merges")
        if index > 0:
            left = self.pool.fetch(parent.children[index - 1])
            self._merge_internal(parent, index - 1, left, page)
            self.pool.unpin(left, dirty=True)
            drop_index = index - 1
        else:
            right = self.pool.fetch(parent.children[index + 1])
            self._merge_internal(parent, index, page, right)
            self.pool.unpin(page, dirty=True)
            drop_index = index
        self.pool.unpin(parent)
        self._delete_from_internal(path[:-1], parent_id, drop_index)

    def _rotate_internal(self, parent, sep_index, page, sibling, count,
                         from_right):
        """Move ``count`` keys from ``sibling`` through the parent into
        ``page`` (Section 4.2's redistribution between internal nodes).

        Each step sinks the separator into ``page`` with the sibling's
        nearest child and raises the sibling's nearest key in its place.
        Stab lists follow the keys: what the finally risen key stabs moves up
        into ``SL(parent)`` ("SL(k') should be removed from the two internal
        nodes and inserted into SL(P)"), what the old separator alone stabbed
        sinks from ``SL(parent)`` into ``SL(page)``, and records of the
        sibling whose subtree moved across re-home under ``page``.
        """
        parent_stab = StabList(self.pool, parent)
        down_key = parent.keys[sep_index]
        sunk_psl = list(parent_stab.iter_psl(sep_index))
        for _ in range(count):
            if from_right:
                page.keys.append(parent.keys[sep_index])
                page.children.append(sibling.children.pop(0))
                parent.keys[sep_index] = sibling.keys.pop(0)
            else:
                page.keys.insert(0, parent.keys[sep_index])
                page.children.insert(0, sibling.children.pop())
                parent.keys[sep_index] = sibling.keys.pop()
        up_key = parent.keys[sep_index]
        # No record page owned has a primary key among the arrivals, whose
        # PSLs therefore start empty; the sibling's other keys keep theirs.
        if from_right:
            del sibling.ps[:count], sibling.pe[:count]
            page.ps.extend([NIL] * count)
            page.pe.extend([NIL] * count)
        else:
            del sibling.ps[-count:], sibling.pe[-count:]
            page.ps[:0] = [NIL] * count
            page.pe[:0] = [NIL] * count
        # Only the sibling can hold records the risen key stabs: anything in
        # page's subtree reaching it crosses the old separator too, so a
        # node above page already owns it.
        sibling_stab = StabList(self.pool, sibling)
        risen = sibling_stab.extract_stabbed(up_key)
        # What else the sibling holds between the old separator and the new
        # one belongs to the subtree that moved across with the children.
        moved = list(sibling_stab.iter_range(*sorted((down_key, up_key))))
        for record in moved:
            sibling_stab.delete(record.start)
        self._refresh_key_pspe(
            sibling, sibling_stab,
            {sibling.primary_key_index(r.start) for r in risen} - {None})
        for record in risen:
            parent_stab.insert(record)
        self._rehome_orphans(parent, parent_stab, sunk_psl,
                             (sep_index, sep_index + 1))
        for record in moved:
            self._push_down_from(parent, record)

    def _merge_internal(self, parent, sep_index, left, right):
        """Merge ``right`` into ``left`` around ``parent.keys[sep_index]``.

        The separator sinks into the merged node; the stab lists are merged
        "by linking SL(I) to SL(S)" (Section 4.2).  Every record keeps its
        primary key and the sunken separator's PSL starts empty, so the
        concatenated ``(ps, pe)`` arrays are already exact.  The caller
        removes the parent entry afterwards via :meth:`_delete_from_internal`
        recursion, whose D31 step re-homes the records the parent held for
        the sunken separator.
        """
        left.keys.append(parent.keys[sep_index])
        left.ps.append(NIL)
        left.pe.append(NIL)
        left.keys.extend(right.keys)
        left.ps.extend(right.ps)
        left.pe.extend(right.pe)
        left.children.extend(right.children)
        StabList(self.pool, left).merge_from(right)
        self.pool.free_page(right)
        left.mark_dirty()

    # ----------------------------------------------------------------- bulk load

    def bulk_load(self, entries, fill_factor=1.0):
        """Build the tree bottom-up from start-sorted unique ``entries``.

        The skeleton (leaf runs and internal key arrays) is planned in
        memory, each element is assigned to the stab list of the top-most
        node that stabs it (or to none), and the pages are then materialized
        through the buffer pool.

        Every internal key is a leaf-boundary separator, so an element no
        separator falls inside is stabbed by no node.  One C-level scan per
        leaf finds the elements a separator does fall inside, and only they
        are walked down the plan; the rest are neither walked nor copied.
        The caller's list and entries are never mutated: an entry is copied
        only when its flag must change, and a stabbed element's one flagged
        entry is shared by its owner's stab list and its leaf.  So an
        unflagged input entry that no key stabs becomes a leaf record as it
        is.
        """
        if self.root_id:
            raise XRTreeError("bulk_load requires an empty tree")
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError("fill factor must be in (0, 1]")
        entries = list(entries)
        starts = list(map(_START, entries))
        if not all(map(lt, starts, starts[1:])):
            raise XRTreeError("bulk_load input must be sorted on start")
        if not entries:
            return
        plan = _BulkPlan(self, entries, starts, fill_factor)
        plan.assign_stabs()
        self.root_id = plan.materialize()
        self.height = len(plan.levels) + 1
        self.size = len(entries)


class _BulkPlan:
    """In-memory skeleton used by :meth:`XRTree.bulk_load`.

    ``entries`` is the load's own list (the caller's is left alone) and is
    split into leaves of ``per_leaf``; ``boundary_keys`` holds the sorted
    separator between each pair of neighbouring leaves, and every internal
    key of the plan is one of them.
    """

    def __init__(self, tree, entries, starts, fill_factor):
        self.tree = tree
        self.entries = entries
        per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
        self.per_leaf = per_leaf
        per_internal = max(2, int(tree.internal_capacity * fill_factor))
        # Separator keys between consecutive leaves (split-key optimization
        # applies here exactly as during dynamic splits).
        self.boundary_keys = [
            tree._choose_separator(starts[cut - 1], starts[cut])
            for cut in range(per_leaf, len(entries), per_leaf)
        ]
        # levels[0] is the lowest internal level; each node is a dict with
        # "keys", "children" (indices into the level below) and "stabs".
        self.levels = []
        child_count = len(self.boundary_keys) + 1
        keys = self.boundary_keys
        while child_count > 1:
            nodes = []
            child = 0
            next_keys = []
            while child < child_count:
                take = min(per_internal + 1, child_count - child)
                if child_count - child - take == 1:
                    take -= 1  # never leave a dangling single child
                nodes.append({
                    "keys": keys[child : child + take - 1],
                    "children": range(child, child + take),
                    "stabs": [],
                })
                child += take
                if child < child_count:
                    next_keys.append(keys[child - 1])
            self.levels.append(nodes)
            keys = next_keys
            child_count = len(nodes)

    def stabbed_positions(self):
        """Ascending positions of the elements some separator key stabs.

        Starts are strictly ascending, so the separator ``key`` cutting the
        entries at ``cut`` lies above every start before the cut and at or
        below ``entries[cut].start``.  The elements it stabs are those
        before the cut ending at or past it (one C-level scan per leaf),
        plus ``entries[cut]`` when its start equals the key.  An element of
        a leaf that neither bounding separator stabs is stabbed by none.
        """
        entries = self.entries
        stabbed = []
        low = 0
        for cut, key in zip(range(self.per_leaf, len(entries), self.per_leaf),
                            self.boundary_keys):
            stabbed.extend(compress(
                range(low, cut),
                map(le, repeat(key), map(_END, entries[low:cut]))))
            low = cut
            if entries[cut].start == key:
                stabbed.append(cut)
                low += 1
        return stabbed

    def assign_stabs(self):
        """Assign each stabbed element to the top-most node whose key stabs
        it, and give every entry the flag its placement needs."""
        entries = self.entries
        stabbed = self.stabbed_positions()
        flagged = set(compress(range(len(entries)),
                               map(_IN_STAB_LIST, entries)))
        for position in flagged.difference(stabbed):
            entries[position] = entries[position].with_flag(False)
        if not stabbed:
            return
        top = len(self.levels) - 1
        for position in stabbed:
            entry = entries[position]
            if not entry.in_stab_list:
                entries[position] = entry = entry.with_flag(True)
            start, end = entry.start, entry.end
            node = self.levels[top][0]
            level_index = top
            while True:
                keys = node["keys"]
                j = bisect_left(keys, start)
                if j < len(keys) and keys[j] <= end:
                    node["stabs"].append(entry)
                    break
                # A separator stabs the entry, so some node on its start's
                # path holds it: the walk ends above the leaves.
                level_index -= 1
                node = self.levels[level_index][
                    node["children"][bisect_right(keys, start)]]

    def materialize(self):
        """Write all pages bottom-up; returns the root page id."""
        pool = self.tree.pool
        entries, per_leaf = self.entries, self.per_leaf
        leaf_ids = []
        previous = None
        for low in range(0, len(entries), per_leaf):
            page = pool.new_page(XRLeafPage(entries[low : low + per_leaf]))
            if previous is not None:
                previous.next_id = page.page_id
                pool.unpin(previous, dirty=True)
            previous = page
            leaf_ids.append(page.page_id)
        if previous is not None:
            pool.unpin(previous, dirty=True)
        child_ids = leaf_ids
        for level in self.levels:
            level_ids = []
            for node in level:
                sl_head, sl_dir = self._write_stab_chain(node["stabs"])
                page = pool.new_page(
                    XRInternalPage(
                        node["keys"],
                        [child_ids[c] for c in node["children"]],
                        sl_head=sl_head, sl_dir=sl_dir,
                        sl_count=len(node["stabs"]),
                    )
                )
                self._set_pspe(page, node["stabs"])
                level_ids.append(page.page_id)
                pool.unpin(page, dirty=True)
            child_ids = level_ids
        return child_ids[0]

    def _write_stab_chain(self, stabs):
        pool = self.tree.pool
        if not stabs:
            return 0, 0
        capacity = StabListPage.capacity(pool.page_size)
        directory = []
        previous = None
        for i in range(0, len(stabs), capacity):
            chunk = stabs[i : i + capacity]
            page = pool.new_page(StabListPage(chunk))
            directory.append((chunk[0].start, page.page_id))
            if previous is not None:
                previous.next_id = page.page_id
                pool.unpin(previous, dirty=True)
            previous = page
        pool.unpin(previous, dirty=True)
        dir_id = 0
        if len(directory) > 1:
            dir_page = pool.new_page(StabDirectoryPage(directory))
            dir_id = dir_page.page_id
            pool.unpin(dir_page, dirty=True)
        return directory[0][1], dir_id

    @staticmethod
    def _set_pspe(node, stabs):
        node.ps = [NIL] * len(node.keys)
        node.pe = [NIL] * len(node.keys)
        for record in stabs:
            j = node.primary_key_index(record.start)
            if j is not None and node.ps[j] == NIL:
                node.ps[j] = record.start
                node.pe[j] = record.end
