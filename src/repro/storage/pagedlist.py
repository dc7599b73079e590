"""Page-chained record lists.

Two users in this library:

* plain *element lists* — the sequential, start-ordered input lists consumed
  by the merge-based join algorithms (the "no-index" representation), and
* *stab lists* of XR-tree internal nodes (which subclass the same record-page
  machinery in :mod:`repro.indexes.xrtree.stablist`).

Pages hold fixed-size records plus a small header (record count and the id of
the next page in the chain).
"""

import struct
from bisect import bisect_left, bisect_right
from operator import attrgetter

from repro.storage.errors import PageDecodeError
from repro.storage.pages import (
    PAGE_HEADER_SIZE,
    ElementEntry,
    Page,
    register_page_type,
)

_START = attrgetter("start")


class RecordPage(Page):
    """A page of :class:`ElementEntry` records and a next-page link.

    Owns the record codec — one ``iter_unpack`` over the page's record
    region, one ``pack_into`` per record straight into the page image — and
    the in-page search on ``start``.  A concrete page type adds only its
    ``TYPE_ID``.
    """

    _HEADER = struct.Struct("<HI")  # record count, next page id (0 = nil)

    def __init__(self, records=None, next_id=0):
        super().__init__()
        self.records = list(records) if records else []
        self.next_id = next_id

    @classmethod
    def capacity(cls, page_size):
        """Maximum number of records a page of ``page_size`` bytes holds."""
        return (page_size - PAGE_HEADER_SIZE - cls._HEADER.size) \
            // ElementEntry.SIZE

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.records), self.next_id)
        pack_into = ElementEntry.STRUCT.pack_into
        offset = self._HEADER.size
        for record in self.records:
            pack_into(out, offset, record.doc_id, record.start, record.end,
                      record.level, record.in_stab_list, record.ptr)
            offset += ElementEntry.SIZE

    @classmethod
    def decode_payload(cls, data, page_size):
        count, next_id = cls._HEADER.unpack_from(data, 0)
        end = cls._HEADER.size + count * ElementEntry.SIZE
        if end > len(data):
            raise PageDecodeError(
                "%s claims %d records but the payload holds at most %d"
                % (cls.__name__, count,
                   (len(data) - cls._HEADER.size) // ElementEntry.SIZE)
            )
        fields = ElementEntry.STRUCT.iter_unpack(data[cls._HEADER.size : end])
        return cls([ElementEntry(*record) for record in fields], next_id)

    def slot_of(self, key):
        """Slot of the first record with ``start >= key``."""
        return bisect_left(self.records, key, key=_START)

    def slot_after(self, key):
        """Slot of the first record with ``start > key``."""
        return bisect_right(self.records, key, key=_START)


@register_page_type
class ElementListPage(RecordPage):
    """A page of :class:`ElementEntry` records in document order."""

    TYPE_ID = 2


class PagedElementList:
    """A start-ordered element list stored as a chain of pages.

    This is the representation scanned by the non-indexed join algorithms: a
    sequential file of ``(DocId, start, end, level)`` records sorted by
    document order, exactly the input format of Section 2.2.
    """

    def __init__(self, pool, head_id=0, length=0, page_count=0):
        self._pool = pool
        self.head_id = head_id
        self.length = length
        self.page_count = page_count

    @property
    def pool(self):
        """The buffer pool the list's pages live in."""
        return self._pool

    @classmethod
    def build(cls, pool, entries, fill_factor=1.0):
        """Bulk-load ``entries`` (already sorted by document order).

        ``fill_factor`` < 1.0 leaves slack in each page, as a freshly loaded
        but updatable file would.
        """
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError("fill factor must be in (0, 1], got %r" % fill_factor)
        capacity = ElementListPage.capacity(pool.page_size)
        per_page = max(1, int(capacity * fill_factor))
        entries = list(entries)
        lst = cls(pool)
        lst.length = len(entries)
        prev_page = None
        for index in range(0, len(entries), per_page):
            page = pool.new_page(ElementListPage(entries[index : index + per_page]))
            lst.page_count += 1
            if prev_page is None:
                lst.head_id = page.page_id
            else:
                prev_page.next_id = page.page_id
                pool.unpin(prev_page, dirty=True)
            prev_page = page
        if prev_page is not None:
            pool.unpin(prev_page, dirty=True)
        return lst

    def __len__(self):
        return self.length

    def __iter__(self):
        """Yield entries in order, touching one page at a time."""
        page_id = self.head_id
        while page_id:
            with self._pool.pinned(page_id) as page:
                next_id = page.next_id
                for record in page.records:
                    yield record
            page_id = next_id

    def cursor(self):
        """Return a forward :class:`ElementListCursor` over this list."""
        return ElementListCursor(self._pool, self.head_id)

    def pages(self):
        """Yield page ids of the chain in order (for space accounting)."""
        page_id = self.head_id
        while page_id:
            yield page_id
            with self._pool.pinned(page_id) as page:
                page_id = page.next_id


class ElementListCursor:
    """Forward cursor over a paged element list.

    Exposes the minimal protocol the merge joins need: the current entry,
    ``advance`` by one, and ``at_end``.  Every page transition goes through
    the buffer pool so sequential scans are charged faithfully.
    """

    def __init__(self, pool, head_id):
        self._pool = pool
        self._page_id = head_id
        self._records = []
        self._next_id = 0
        self._slot = 0
        self._exhausted = head_id == 0
        if not self._exhausted:
            self._load(head_id)
            self._skip_empty_pages()

    def _load(self, page_id):
        with self._pool.pinned(page_id) as page:
            self._records = page.records
            self._next_id = page.next_id
        self._page_id = page_id
        self._slot = 0

    def _skip_empty_pages(self):
        while self._slot >= len(self._records):
            if not self._next_id:
                self._exhausted = True
                return
            self._load(self._next_id)

    @property
    def at_end(self):
        return self._exhausted

    @property
    def current(self):
        if self._exhausted:
            raise StopIteration("cursor is exhausted")
        return self._records[self._slot]

    def advance(self):
        """Move to the next entry; returns False when the list is exhausted."""
        if self._exhausted:
            return False
        self._slot += 1
        self._skip_empty_pages()
        return not self._exhausted

    def clone(self):
        """An independent cursor at the same position.

        Cloning re-reads the current page through the buffer pool, so a
        rescan from a saved position is charged its page accesses — this is
        what makes the MPMGJN baseline's repeated scans visible in the I/O
        counters.
        """
        copy = ElementListCursor.__new__(ElementListCursor)
        copy._pool = self._pool
        copy._page_id = self._page_id
        copy._records = []
        copy._next_id = 0
        copy._slot = self._slot
        copy._exhausted = self._exhausted
        if not copy._exhausted:
            copy._load(self._page_id)
            copy._slot = self._slot
            copy._skip_empty_pages()
        return copy
