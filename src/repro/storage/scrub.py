"""Online integrity scrubbing: budgeted verification, quarantine, rebuild.

PR 2 gave every page a CRC-32 that is verified on buffer-pool miss — but a
flipped bit on a cold page is only *discovered* when some query happens to
fetch it, which means corruption surfaces as a :class:`~repro.storage.\
errors.ChecksumError` from deep inside a join loop, at the worst possible
moment.  The scrubber inverts that: a background pass walks the catalog
under an I/O budget, re-reads every page of every structure **from disk**
(through a private cold buffer pool, so resident clean frames cannot mask
on-disk rot), and verifies

* page checksums and typed decoding (every fetch through the cold pool),
* the full XR-tree invariant suite (:func:`~repro.indexes.xrtree.checker.\
  check_xrtree`) for xr-tree entries,
* leaf-chain/record-count consistency for B+-trees and element lists,
* blob chain integrity for blob entries.

A structure that fails any check is **quarantined**: its name lands in
:attr:`IntegrityScrubber.quarantined`, its cached handle is discarded from
the index manager, and (once the owner wires :meth:`is_quarantined` into
its lookup path, as :class:`~repro.core.database.XmlDatabase` does)
queries against it fail fast with :class:`IndexQuarantinedError` instead
of tripping over raw checksum errors mid-join.

A quarantined XR-tree can be **rebuilt** from its surviving element list:
the salvage pass walks every reachable page of the old tree, skipping
unreadable ones, collects the union of decodable leaf records (stab lists
hold copies of leaf elements, so leaves alone carry the full element set),
bulk-loads a fresh tree in the live pool and re-catalogues it under the
same name.  Records on corrupt leaf pages are lost — salvage recovers the
*surviving* elements, which is exactly what the name says.  The old
tree's pages are abandoned (space reclamation is future work).

Scheduling: :meth:`step` verifies catalog entries until the per-step I/O
budget is spent, remembering its cursor, so an owner can interleave scrub
slices with query traffic; :meth:`scrub_all` forces one full cycle.
"""

from dataclasses import dataclass, field

from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.errors import PageNotFoundError, StorageError

#: Frames in the private verification pool.  Small on purpose: every page
#: visit must be a miss (and hence a checksum verification), and the pool
#: exists only while one structure is being checked.
SCRUB_POOL_FRAMES = 16


class IndexQuarantinedError(StorageError):
    """A query touched an index the scrubber has quarantined.

    Fails fast — before any join starts — instead of letting a
    :class:`~repro.storage.errors.ChecksumError` surface mid-join.
    """

    def __init__(self, name, reason=None):
        message = "index %r is quarantined" % name
        if reason:
            message += " (%s)" % reason
        super().__init__(message)
        self.name = name
        self.reason = reason


@dataclass
class ScrubReport:
    """What one scrub step (or full cycle) did.

    ``entries_checked`` counts catalog entries verified this step;
    ``pages_read`` counts cold page reads performed (the I/O the budget
    governs); ``clean``/``corrupt`` name the entries by outcome;
    ``quarantined`` names entries *newly* quarantined this step;
    ``cycle_complete`` is True when the walk wrapped around the catalog.
    """

    entries_checked: int = 0
    pages_read: int = 0
    clean: list = field(default_factory=list)
    corrupt: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    cycle_complete: bool = False

    def merge(self, other):
        self.entries_checked += other.entries_checked
        self.pages_read += other.pages_read
        self.clean.extend(other.clean)
        self.corrupt.extend(other.corrupt)
        self.quarantined.extend(other.quarantined)
        self.skipped.extend(other.skipped)
        self.cycle_complete = self.cycle_complete or other.cycle_complete
        return self


@dataclass
class RebuildResult:
    """Outcome of one :meth:`IntegrityScrubber.rebuild`."""

    name: str
    salvaged: int
    lost_pages: int
    verified: bool


class IntegrityScrubber:
    """Incremental catalog-wide integrity verification over one disk.

    ``catalog`` and ``pool`` are the *live* catalog and buffer pool (the
    scrubber flushes them before reading, so on-disk images are current);
    ``manager`` is the optional :class:`~repro.storage.indexmanager.\
    IndexManager` whose cached handles must be discarded when their
    backing structure is quarantined or rebuilt.  ``io_budget`` is the
    default per-:meth:`step` page-read allowance (None = unbounded).
    """

    def __init__(self, catalog, pool, manager=None, io_budget=None):
        self._catalog = catalog
        self._pool = pool
        self._manager = manager
        self.io_budget = io_budget
        self.quarantined = {}  # name -> reason string
        self._pending = []     # names left in the current cycle
        self.cycles_completed = 0
        # Lifetime counters (scalar, so a long-running scrubber cannot
        # accumulate unbounded per-entry lists the way a merged
        # ScrubReport would).
        self.total_entries_checked = 0
        self.total_pages_read = 0
        self.total_clean = 0
        self.total_corrupt = 0

    # -- quarantine ----------------------------------------------------------

    def is_quarantined(self, name):
        return name in self.quarantined

    def quarantine(self, name, reason):
        """Mark ``name`` unusable and drop its cached handle, if any."""
        self.quarantined[name] = reason
        if self._manager is not None:
            self._manager.discard(name)

    def clear_quarantine(self, name):
        self.quarantined.pop(name, None)

    # -- scheduling ----------------------------------------------------------

    def step(self, io_budget=None):
        """Verify catalog entries until the I/O budget is spent.

        Resumes where the previous step left off; a cycle ends when every
        catalogued name has been visited once, after which the next step
        starts a fresh cycle (picking up newly catalogued names).
        Returns a :class:`ScrubReport` for this step.
        """
        budget = self.io_budget if io_budget is None else io_budget
        report = ScrubReport()
        self._sync_to_disk()
        if not self._pending:
            self._pending = sorted(self._catalog.names())
        while self._pending:
            if budget is not None and report.pages_read >= budget:
                return self._account(report)
            name = self._pending.pop(0)
            if name in self.quarantined:
                report.skipped.append(name)
                continue
            self._verify_one(name, report)
        report.cycle_complete = True
        self.cycles_completed += 1
        return self._account(report)

    def _account(self, report):
        """Fold one step's report into the lifetime counters."""
        self.total_entries_checked += report.entries_checked
        self.total_pages_read += report.pages_read
        self.total_clean += len(report.clean)
        self.total_corrupt += len(report.corrupt)
        return report

    def stats(self):
        """Lifetime scrub counters as one plain dict."""
        return {
            "entries_checked": self.total_entries_checked,
            "pages_read": self.total_pages_read,
            "clean": self.total_clean,
            "corrupt": self.total_corrupt,
            "quarantined": len(self.quarantined),
            "cycles_completed": self.cycles_completed,
        }

    def scrub_all(self):
        """One full catalog cycle regardless of the per-step budget."""
        self._pending = []
        report = self.step(io_budget=None)
        return report

    # -- verification --------------------------------------------------------

    def _sync_to_disk(self):
        """Push live state down so cold reads see current images."""
        if self._manager is not None and not self._manager.closed:
            self._manager.flush()
        self._pool.flush_all()

    def _cold_pool(self):
        """A fresh pool on the same disk: every fetch is a verified miss."""
        return BufferPool(self._pool.disk, capacity=SCRUB_POOL_FRAMES)

    def _verify_one(self, name, report):
        kinds = self._catalog.names()
        kind = kinds.get(name)
        if kind is None:  # vanished between listing and visit
            report.skipped.append(name)
            return
        pool = self._cold_pool()
        shadow = Catalog(pool, self._catalog.page_id)
        try:
            self._check_structure(shadow, name, kind)
        except StorageError as exc:
            report.corrupt.append(name)
            report.quarantined.append(name)
            self.quarantine(name, "%s: %s" % (type(exc).__name__, exc))
        else:
            report.clean.append(name)
        finally:
            report.entries_checked += 1
            report.pages_read += pool.stats.misses

    def _check_structure(self, shadow, name, kind):
        """Fully read ``name`` through the shadow catalog; raise on rot.

        Every page touched is a cold miss, so checksums and typed decoding
        are verified on the way in; structural invariants are layered on
        top per kind.
        """
        if kind == "xr-tree":
            from repro.indexes.xrtree import check_xrtree

            tree = shadow.load_xrtree(name)
            check_xrtree(tree)
        elif kind == "b+tree":
            tree = shadow.load_bptree(name)
            count = sum(1 for _ in tree.items())
            if count != tree.size:
                raise StorageError(
                    "b+tree %r leaf chain holds %d records, metadata "
                    "says %d" % (name, count, tree.size)
                )
        elif kind == "element-list":
            element_list = shadow.load_element_list(name)
            count = sum(1 for _ in element_list)
            if count != len(element_list):
                raise StorageError(
                    "element list %r holds %d records, metadata says %d"
                    % (name, count, len(element_list))
                )
        elif kind == "blob":
            shadow.load_blob(name)
        else:
            raise StorageError("unknown catalog kind %r for %r"
                               % (kind, name))

    # -- page enumeration and salvage ---------------------------------------

    def pages_of(self, name):
        """Every page id reachable from ``name``'s catalog entry.

        For XR-trees this includes internal nodes, leaves, stab-list
        chains and stab directories.  Unreadable pages are included (they
        are reachable — their *content* is what's broken); their subtrees
        are not expanded.  Used by fault-injection sweeps to aim bit-flips
        and by salvage to know what the old structure occupied.
        """
        _page, _index, entry = self._catalog._find(name)
        if entry is None:
            return []
        pool = self._cold_pool()
        return sorted(self._walk_pages(pool, entry["root"])[0])

    def _walk_pages(self, pool, root_id):
        """``(reachable_page_ids, salvaged_records, lost_pages)`` from a
        guarded traversal of an XR-tree (works for B+-trees too: their
        pages simply have no stab chains)."""
        from repro.indexes.xrtree.pages import XRInternalPage, XRLeafPage

        seen = set()
        records = {}
        lost = 0
        stack = [root_id]
        while stack:
            page_id = stack.pop()
            if not page_id or page_id in seen:
                continue
            seen.add(page_id)
            try:
                with pool.pinned(page_id) as page:
                    if isinstance(page, XRInternalPage):
                        stack.extend(page.children)
                        stack.append(page.sl_head)
                        stack.append(page.sl_dir)
                    elif isinstance(page, XRLeafPage):
                        for record in page.records:
                            records[record.start] = record
                        stack.append(page.next_id)
                    else:
                        # Stab-list / directory pages: follow the chain if
                        # one exists, record nothing (stab records are
                        # copies of leaf elements).
                        stack.append(getattr(page, "next_id", 0))
            except StorageError:
                lost += 1
        return seen, records, lost

    def _exclusion_salvage(self, name):
        """Last-resort salvage when the tree's root is unreadable.

        With the root gone the leaf chain's heads are unreachable, so this
        scans *every* allocated disk page instead, keeping element records
        from leaf and stab-list pages that no *other* catalogued structure
        owns.  Stab-list records are copies of leaf elements, so including
        the dead tree's stab pages only adds coverage, never noise.
        Returns ``(records_by_start, unreadable_pages)``.
        """
        from repro.indexes.xrtree.pages import StabListPage, XRLeafPage

        pool = self._cold_pool()
        owned = set(self._catalog._pages())
        for other in self._catalog.names():
            if other == name:
                continue
            _page, _index, entry = self._catalog._find(other)
            if entry is not None:
                owned |= self._walk_pages(pool, entry["root"])[0]
        records = {}
        lost = 0
        # _next_page_id is the disk's allocation bound; a disk without one
        # (no way to enumerate pages) simply cannot be exclusion-scanned.
        bound = getattr(self._pool.disk, "_next_page_id", 1)
        for page_id in range(1, bound):
            if page_id in owned:
                continue
            try:
                with pool.pinned(page_id) as page:
                    if isinstance(page, (XRLeafPage, StabListPage)):
                        for record in page.records:
                            records[record.start] = record
            except PageNotFoundError:
                continue  # freed page
            except StorageError:
                lost += 1
        return records, lost

    def rebuild(self, name):
        """Rebuild a (typically quarantined) XR-tree from surviving leaves.

        Salvages every decodable leaf record of the old tree, bulk-loads a
        fresh tree in the live pool, replaces the catalog entry, clears
        the quarantine and re-verifies the result.  Returns a
        :class:`RebuildResult`; raises :class:`~repro.storage.errors.\
        StorageError` if the catalog entry is missing or is not an
        XR-tree.
        """
        from repro.indexes.xrtree import XRTree, check_xrtree
        from repro.storage.catalog import CatalogError

        self._sync_to_disk()
        _page, _index, entry = self._catalog._find(name)
        if entry is None:
            raise StorageError("cannot rebuild %r: not catalogued" % name)
        if self._catalog.names().get(name) != "xr-tree":
            raise StorageError("cannot rebuild %r: not an xr-tree" % name)
        _seen, records, lost = self._walk_pages(self._cold_pool(),
                                                entry["root"])
        if not records:
            # The walk found nothing — the root (or the whole upper tree)
            # is unreadable.  Fall back to the disk-wide exclusion scan.
            records, extra_lost = self._exclusion_salvage(name)
            lost += extra_lost
        # Salvaged records keep their old flags; the load resets them.
        survivors = [records[start] for start in sorted(records)]
        if self._manager is not None:
            self._manager.discard(name)
        try:
            self._catalog.remove(name)
        except CatalogError:
            pass
        tree = XRTree(self._pool)
        if survivors:
            tree.bulk_load(survivors)
        self._catalog.save_xrtree(name, tree)
        self._pool.flush_all()
        check_xrtree(tree)
        self.clear_quarantine(name)
        # Confirm the persisted image round-trips cleanly from disk.
        report = ScrubReport()
        self._verify_one(name, report)
        return RebuildResult(name, len(survivors), lost,
                             verified=name in report.clean)
