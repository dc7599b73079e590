"""Stab-list storage and maintenance for XR-tree internal nodes.

A node's stab list ``SL(n)`` is a chain of :class:`StabListPage` holding
element records sorted by ``start``.  Because the primary stabbing key of an
element is the smallest node key >= its start, start-order equals the
concatenation of the primary stab lists ``PSL_0 PSL_1 ... PSL_{m-1}``; each
PSL is internally ordered outermost element first (neighbouring elements of a
PSL are strict ancestor/descendant pairs — Section 3.1), which is exactly the
order Algorithm 5 scans.

When the chain spans more than one page the node carries a *ps directory*
page (Section 3.3, Figure 4) so the page holding any PSL head is located with
at most one extra I/O.  Our directory stores one ``(first_start, page_id)``
entry per chain page rather than one entry per key; both variants give the
1-2 I/O bound the paper claims and ours stays exact under arbitrary key
insertions (PSL membership is derived from the node's keys, never stored).
"""

from bisect import bisect_right
from functools import partial
from itertools import islice
from operator import attrgetter, itemgetter

from repro.indexes.xrtree.pages import NIL, StabDirectoryPage, StabListPage
from repro.storage.errors import StorageError

_NEG_INF = -(2 ** 31)
_FIRST_START = itemgetter(0)  # of a ``(first_start, page_id)`` directory entry
_START = attrgetter("start")


class StabListError(StorageError):
    """Stab-list corruption or protocol violation."""


def _fetch(pool, page_id):
    """Read one page: a fetch and an unpin."""
    page = pool.fetch(page_id)
    pool.unpin(page)
    return page


def _read_once(pool, pages, charge, page_id):
    """Read a stab-list page unless ``pages`` holds it already; a read
    page joins ``pages`` and is charged to ``charge``."""
    page = pages.get(page_id)
    if page is None:
        if charge is not None:
            charge(1)
        page = pages[page_id] = _fetch(pool, page_id)
    return page


def _directory(node, read):
    """``node``'s chain directory, its page read through ``read``."""
    if not node.sl_head:
        return []
    if node.sl_dir:
        return read(node.sl_dir).entries
    return [(_NEG_INF, node.sl_head)]


def _route(directory, start):
    """Index into ``directory`` of the page that should hold ``start``."""
    return max(bisect_right(directory, start, key=_FIRST_START) - 1, 0)


def _walk(read, directory, low, high):
    """Yield the chain records with ``low < start <= high``, reading the
    pages from the one that should hold ``low + 1`` on, through ``read``."""
    page_id = directory[_route(directory, low + 1)][1]
    while page_id:
        page = read(page_id)
        records = page.records
        for record in islice(records, bisect_right(records, low, key=_START),
                             None):
            if record.start > high:
                return
            yield record
        page_id = page.next_id


def collect_stabbed(pool, node, point, counter=None, after_start=None,
                    pages=None):
    """Algorithm 5: the records of ``node``'s stab list stabbed by
    ``point``, sorted by start.

    Only PSLs whose first element's stored region ``(ps_c, pe_c)``
    strictly contains ``point`` are touched, each scanned from its head
    until the first record not stabbed — the nesting of PSL members
    guarantees stabbed records form a prefix.

    ``after_start`` implements the FindAncestors variation XR-stack uses:
    records with ``start <= after_start`` are already on the caller's
    stack, so none of them is read.  ``PSL_c`` holds the starts in
    ``(k_{c-1}, k_c]``, so the candidates begin at the first key past
    ``after_start``, and each candidate's walk begins at the first start
    past it.  Skipping a PSL's records at or before ``after_start``
    changes no answer: PSL members nest, so if one of them is not stabbed,
    neither is any record after it, and the walk from ``after_start``
    stops where the walk from the head would have.

    ``pages`` maps the id of each stab-list page (directory or chain)
    already read for this node to the decoded page — the memo a join's
    :class:`~repro.indexes.bptree.Finger` keeps beside the node — and
    gains the pages this search reads.  A page found there is not
    requested again.  The walk is the same either way, so the answer and
    the ``counter.count`` charges do not depend on it.

    Counters exposing ``count_stab_page`` (:class:`~repro.joins.base.\
    JoinStats` does) are additionally charged one unit per stab-list page
    requested — the directory page plus every chain page fetched — which
    is the observable ``R`` term of Theorem 4.

    Only reads the node: a caller searching it needs no pin on it.
    """
    if not node.sl_head:
        return []
    keys = node.keys
    # PSL_c holds the starts in (k_{c-1}, k_c]: past the first key above
    # ``point`` no start lies before it.
    c = bisect_right(keys, point)
    if c == len(keys):
        c -= 1
    lowest = 0 if after_start is None else bisect_right(keys, after_start)
    if c < lowest:
        return []
    ps, pe = node.ps, node.pe
    results = []
    read = None
    while c >= lowest:
        head = ps[c]
        if head != NIL and head < point < pe[c]:
            if read is None:
                read = partial(_read_once, pool,
                               {} if pages is None else pages,
                               getattr(counter, "count_stab_page", None))
                directory = _directory(node, read)
            low = keys[c - 1] if c else _NEG_INF
            if after_start is not None and after_start > low:
                low = after_start
            for record in _walk(read, directory, low, keys[c]):
                if not record.start < point < record.end:
                    break
                results.append(record)
        c -= 1
    if results:
        if counter is not None:
            counter.count(len(results))
        results.sort(key=_START)
    return results


class StabList:
    """Manager for the stab list of one internal node.

    The owning :class:`XRInternalPage` must be pinned by the caller for the
    lifetime of this object; its ``sl_head``/``sl_dir``/``sl_count`` fields
    and per-key ``(ps, pe)`` entries are updated in place (the caller is
    responsible for unpinning the node dirty).
    """

    def __init__(self, pool, node):
        self._pool = pool
        self.node = node

    def __len__(self):
        return self.node.sl_count

    # -- directory ------------------------------------------------------------

    def _load_directory(self):
        """Return the page directory: [(first_start, page_id)].

        A single-page chain has no directory page; a one-entry placeholder
        with an unknown (-inf) first start is returned instead.  The list
        is the directory page's own: a caller that edits it copies it.
        """
        return _directory(self.node, partial(_fetch, self._pool))

    def _store_directory(self, entries):
        """Persist the directory, creating/freeing the page as needed."""
        node = self.node
        if len(entries) <= 1:
            if node.sl_dir:
                page = self._pool.fetch(node.sl_dir)
                self._pool.free_page(page)
                node.sl_dir = 0
            node.sl_head = entries[0][1] if entries else 0
            return
        node.sl_head = entries[0][1]
        if node.sl_dir:
            with self._pool.pinned(node.sl_dir) as dir_page:
                dir_page.entries = list(entries)
                dir_page.mark_dirty()
        else:
            dir_page = self._pool.new_page(StabDirectoryPage(list(entries)))
            node.sl_dir = dir_page.page_id
            self._pool.unpin(dir_page, dirty=True)

    # -- iteration --------------------------------------------------------------

    def iter_all(self):
        """Yield every record in start order (one page pinned at a time)."""
        page_id = self.node.sl_head
        while page_id:
            with self._pool.pinned(page_id) as page:
                records = list(page.records)
                page_id = page.next_id
            for record in records:
                yield record

    def to_list(self):
        return list(self.iter_all())

    def page_count(self):
        """Pages in the chain (excluding the directory page)."""
        count = 0
        page_id = self.node.sl_head
        while page_id:
            count += 1
            with self._pool.pinned(page_id) as page:
                page_id = page.next_id
        return count

    def iter_range(self, low, high):
        """Yield the records with ``low < start <= high`` in start order.

        Only the chain pages that can hold such records are read: the
        directory routes to the first, and the walk stops at the first
        record past ``high``.
        """
        read = partial(_fetch, self._pool)
        directory = _directory(self.node, read)
        return _walk(read, directory, low, high) if directory else iter(())

    def iter_psl(self, key_index):
        """Yield the records of ``PSL_{key_index}`` in outermost-first order."""
        return self.iter_range(*self.node.psl_bounds(key_index))

    # -- point updates -----------------------------------------------------------

    def insert(self, entry):
        """Insert ``entry`` (which some key of this node stabs) into the list.

        Updates the owning key's ``(ps, pe)`` when the entry becomes the new
        head of its PSL.
        """
        node = self.node
        capacity = StabListPage.capacity(self._pool.page_size)
        directory = list(self._load_directory())
        if not directory:
            page = self._pool.new_page(StabListPage([entry]))
            node.sl_head = page.page_id
            self._pool.unpin(page, dirty=True)
        else:
            index = _route(directory, entry.start)
            page = self._pool.fetch(directory[index][1])
            slot = page.slot_of(entry.start)
            if slot < len(page.records) \
                    and page.records[slot].start == entry.start:
                self._pool.unpin(page)
                raise StabListError("duplicate stab entry %d" % entry.start)
            page.records.insert(slot, entry)
            changed_dir = False
            if slot == 0 and directory[index][0] != _NEG_INF:
                directory[index] = (entry.start, directory[index][1])
                changed_dir = True
            if len(page.records) > capacity:
                mid = len(page.records) // 2
                right = StabListPage(page.records[mid:], page.next_id)
                page.records = page.records[:mid]
                right_page = self._pool.new_page(right)
                page.next_id = right_page.page_id
                if directory[index][0] == _NEG_INF:
                    directory[index] = (page.records[0].start, directory[index][1])
                directory.insert(
                    index + 1, (right.records[0].start, right_page.page_id)
                )
                self._pool.unpin(right_page, dirty=True)
                changed_dir = True
            self._pool.unpin(page, dirty=True)
            if changed_dir:
                self._store_directory(directory)
        node.sl_count += 1
        self._pspe_after_insert(entry)

    def _pspe_after_insert(self, entry):
        node = self.node
        j = node.primary_key_index(entry.start)
        if j is None or node.keys[j] > entry.end:
            raise StabListError(
                "entry (%d, %d) is not stabbed by any key" % (entry.start, entry.end)
            )
        if node.ps[j] == NIL or entry.start < node.ps[j]:
            node.ps[j] = entry.start
            node.pe[j] = entry.end

    def delete(self, start):
        """Remove and return the record with ``start``, or None.

        Updates the owning key's ``(ps, pe)`` when the removed record was the
        head of its PSL.
        """
        node = self.node
        directory = list(self._load_directory())
        if not directory:
            return None
        index = _route(directory, start)
        page = self._pool.fetch(directory[index][1])
        slot = page.slot_of(start)
        if slot >= len(page.records) or page.records[slot].start != start:
            self._pool.unpin(page)
            return None
        removed = page.records.pop(slot)
        node.sl_count -= 1
        successor = page.records[slot] if slot < len(page.records) else None
        changed_dir = False
        if not page.records:
            # Free the emptied page and unlink it from the chain.
            if index > 0:
                with self._pool.pinned(directory[index - 1][1]) as prev:
                    prev.next_id = page.next_id
                    prev.mark_dirty()
            next_id = page.next_id
            self._pool.free_page(page)
            directory.pop(index)
            changed_dir = True
            if successor is None and next_id:
                successor = self._first_record_of(next_id)
        else:
            if slot == 0 and directory[index][0] != _NEG_INF:
                directory[index] = (page.records[0].start, directory[index][1])
                changed_dir = True
            self._pool.unpin(page, dirty=True)
            if successor is None and index + 1 < len(directory):
                successor = self._first_record_of(directory[index + 1][1])
        if changed_dir:
            self._store_directory(directory)
        self._pspe_after_delete(removed, successor)
        return removed

    def _first_record_of(self, page_id):
        with self._pool.pinned(page_id) as page:
            return page.records[0] if page.records else None

    def _pspe_after_delete(self, removed, successor):
        node = self.node
        j = node.primary_key_index(removed.start)
        if j is None:
            return
        if node.ps[j] != removed.start:
            return
        low, high = node.psl_bounds(j)
        if successor is not None and low < successor.start <= high:
            node.ps[j] = successor.start
            node.pe[j] = successor.end
        else:
            node.ps[j] = NIL
            node.pe[j] = NIL

    # -- structural operations (node split / merge / key changes) ----------------

    def extract_stabbed(self, key):
        """Remove and return every record stabbed by ``key`` (s <= key <= e).

        Only chain pages whose start range can contain such records (first
        start <= key) are touched; records beyond ``key`` have starts greater
        than it and cannot be stabbed.
        """
        directory = self._load_directory()
        removed = []
        new_directory = []
        changed_dir = False
        for position, (first, page_id) in enumerate(directory):
            if first != _NEG_INF and first > key:
                new_directory.extend(directory[position:])
                break
            page = self._pool.fetch(page_id)
            kept = []
            page_removed = False
            for record in page.records:
                if record.start <= key <= record.end:
                    removed.append(record)
                    page_removed = True
                else:
                    kept.append(record)
            if not kept:
                next_id = page.next_id
                if new_directory:
                    with self._pool.pinned(new_directory[-1][1]) as prev:
                        prev.next_id = next_id
                        prev.mark_dirty()
                self._pool.free_page(page)
                changed_dir = True
                continue
            if page_removed:
                page.records = kept
                new_directory.append((kept[0].start, page_id))
                self._pool.unpin(page, dirty=True)
                changed_dir = True
            else:
                new_directory.append((first, page_id))
                self._pool.unpin(page)
        if changed_dir or len(new_directory) != len(directory):
            # Relink in case the head changed or pages were freed mid-chain.
            self._relink(new_directory)
            self._store_directory(new_directory)
        self.node.sl_count -= len(removed)
        return removed

    def _relink(self, directory):
        """Ensure next links follow the directory order exactly."""
        for (first, page_id), (_, next_id) in zip(directory, directory[1:]):
            with self._pool.pinned(page_id) as page:
                if page.next_id != next_id:
                    page.next_id = next_id
                    page.mark_dirty()
        if directory:
            with self._pool.pinned(directory[-1][1]) as page:
                if page.next_id != 0:
                    page.next_id = 0
                    page.mark_dirty()

    def split_after(self, key):
        """Split the chain: records with start > ``key`` move to a new chain.

        Returns ``(new_head, new_dir, new_count)`` describing the chain for
        the new (right) sibling node; this node keeps the rest.  Only the
        page holding the split point is rewritten — the cost is independent
        of the stab list size, as Section 4.1 observes.
        """
        directory = self._load_directory()
        if not directory:
            return 0, 0, 0
        if len(directory) == 1 and directory[0][0] == _NEG_INF:
            # Materialize the first start so routing below is exact.
            first = self._first_record_of(directory[0][1])
            if first is None:
                return 0, 0, 0
            directory[0] = (first.start, directory[0][1])
        split_index = bisect_right(directory, key, key=_FIRST_START)
        left_directory = directory[:split_index]
        right_directory = directory[split_index:]
        if left_directory:
            # The page at the boundary may hold records for both sides.
            boundary_first, boundary_id = left_directory[-1]
            page = self._pool.fetch(boundary_id)
            cut = page.slot_after(key)
            if cut < len(page.records):
                right_records = page.records[cut:]
                page.records = page.records[:cut]
                right_page = self._pool.new_page(StabListPage(right_records))
                right_directory.insert(
                    0, (right_records[0].start, right_page.page_id)
                )
                self._pool.unpin(right_page, dirty=True)
                if not page.records:
                    left_directory.pop()
                    if left_directory:
                        with self._pool.pinned(left_directory[-1][1]) as prev:
                            prev.next_id = 0
                            prev.mark_dirty()
                    self._pool.free_page(page)
                else:
                    page.next_id = 0
                    self._pool.unpin(page, dirty=True)
            else:
                page.next_id = 0
                self._pool.unpin(page, dirty=True)
        moved_total = self._count_chain(right_directory)
        self._relink(right_directory)
        self.node.sl_count -= moved_total
        self._store_directory(left_directory)
        # Build the right chain's own directory.
        right_head = right_directory[0][1] if right_directory else 0
        right_dir = 0
        if len(right_directory) > 1:
            dir_page = self._pool.new_page(StabDirectoryPage(list(right_directory)))
            right_dir = dir_page.page_id
            self._pool.unpin(dir_page, dirty=True)
        return right_head, right_dir, moved_total

    def _count_chain(self, directory):
        total = 0
        for _, page_id in directory:
            with self._pool.pinned(page_id) as page:
                total += len(page.records)
        return total

    def merge_from(self, other_node):
        """Append ``other_node``'s chain to this node's (Section 4.2:
        "this can simply be done by linking SL(I) to SL(S)")."""
        if not other_node.sl_head:
            return
        directory = self._load_directory()
        if directory and directory[0][0] == _NEG_INF:
            first = self._first_record_of(directory[0][1])
            directory[0] = (first.start if first else _NEG_INF, directory[0][1])
        other = StabList(self._pool, other_node)
        other_directory = other._load_directory()
        if other_directory and other_directory[0][0] == _NEG_INF:
            first = self._first_record_of(other_directory[0][1])
            other_directory[0] = (
                first.start if first else _NEG_INF, other_directory[0][1]
            )
        if directory:
            with self._pool.pinned(directory[-1][1]) as last:
                last.next_id = other_directory[0][1]
                last.mark_dirty()
        merged = directory + other_directory
        self.node.sl_count += other_node.sl_count
        if other_node.sl_dir:
            dir_page = self._pool.fetch(other_node.sl_dir)
            self._pool.free_page(dir_page)
        other_node.sl_head = 0
        other_node.sl_dir = 0
        other_node.sl_count = 0
        self._store_directory(merged)

    # -- (ps, pe) recomputation ---------------------------------------------------

    def refresh_pspe(self):
        """Recompute every key's ``(ps, pe)`` by one pass over the chain.

        Used after structural operations (splits, merges, key replacement)
        that can move many PSL heads at once.
        """
        node = self.node
        node.ps = [NIL] * len(node.keys)
        node.pe = [NIL] * len(node.keys)
        for record in self.iter_all():
            j = node.primary_key_index(record.start)
            if j is None or node.keys[j] > record.end:
                raise StabListError(
                    "stab record (%d, %d) not stabbed by node keys"
                    % (record.start, record.end)
                )
            if node.ps[j] == NIL:
                node.ps[j] = record.start
                node.pe[j] = record.end

    def free_all(self):
        """Release every chain page and the directory (node merge cleanup)."""
        node = self.node
        page_id = node.sl_head
        while page_id:
            page = self._pool.fetch(page_id)
            next_id = page.next_id
            self._pool.free_page(page)
            page_id = next_id
        if node.sl_dir:
            dir_page = self._pool.fetch(node.sl_dir)
            self._pool.free_page(dir_page)
        node.sl_head = 0
        node.sl_dir = 0
        node.sl_count = 0
