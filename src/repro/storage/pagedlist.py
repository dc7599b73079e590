"""Page-chained record lists.

Two users in this library:

* plain *element lists* — the sequential, start-ordered input lists consumed
  by the merge-based join algorithms (the "no-index" representation), and
* *stab lists* of XR-tree internal nodes (which subclass the same record-page
  machinery in :mod:`repro.indexes.xrtree.stablist`).

Pages hold fixed-size records plus a small header (record count and the id of
the next page in the chain).  :class:`RecordCursor` reads such a chain, for
element lists and tree leaf levels alike, and is read only by iteration.
"""

import struct
from bisect import bisect_left, bisect_right
from itertools import starmap
from operator import attrgetter

from repro.storage.errors import PageDecodeError
from repro.storage.pages import (
    PAGE_HEADER_SIZE,
    ElementEntry,
    Page,
    register_page_type,
)

_START = attrgetter("start")


def iter_from(records, slot):
    """An iterator over ``records[slot:]`` that neither copies the list
    nor steps over the records before ``slot`` as ``islice`` would: a
    seek's cursor is often read for one entry."""
    records = iter(records)
    records.__setstate__(slot)
    return records


def read_page(pool, page_id):
    """``(records, next_id)`` of the record page ``page_id``: one fetch and
    one unpin, no pin kept.  The one page read of a chain walk —
    :class:`RecordCursor`'s, and XR-stack's when it reads on from the
    leaf a FindAncestors probe left its finger on."""
    page = pool.fetch(page_id)
    records, next_id = page.records, page.next_id
    pool.unpin(page)
    return records, next_id


class RecordPage(Page):
    """A page of :class:`ElementEntry` records and a next-page link.

    Owns the record codec — one ``iter_unpack`` over the page's record
    region, one ``pack_into`` per record straight into the page image — and
    the in-page search on ``start``.  A concrete page type adds only its
    ``TYPE_ID``.
    """

    _HEADER = struct.Struct("<HI")  # record count, next page id (0 = nil)

    def __init__(self, records=None, next_id=0):
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
        page = cls.__new__(cls)
        page.records = list(starmap(
            ElementEntry,
            ElementEntry.STRUCT.iter_unpack(data[cls._HEADER.size : end])))
        page.next_id = next_id
        return page

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
        """Yield entries in order, touching one page at a time and holding
        no pin between entries (the chain walk of :class:`RecordCursor`)."""
        return iter(self.first())

    def first(self):
        """Cursor at the head of the list."""
        return RecordCursor(self._pool, self.head_id)

    def pages(self):
        """Yield page ids of the chain in order (for space accounting)."""
        page_id = self.head_id
        while page_id:
            yield page_id
            with self._pool.pinned(page_id) as page:
                page_id = page.next_id


class RecordCursor:
    """Forward cursor over a ``next_id`` chain of :class:`RecordPage` pages.

    The one cursor over pages: a paged element list and the leaf level of a
    B+-tree or an XR-tree are the same start-sorted chain, and each hands
    this class out from ``first()`` / ``seek(k)`` / ``seek_after(k)``.
    Building a cursor at ``(page_id, slot)`` reads that page through the
    buffer pool, unless the caller has just read it (a tree's descent to
    its leaf) and hands it in as ``page``.

    A cursor is read by iterating it, once: iteration yields the entries
    from ``slot`` to the end of the chain and fetches the next page when
    the entry after a page's last one is requested — one fetch and one
    unpin per page, no prefetch, no pin held across a ``yield``.  A slot
    at or past a page's end yields from the next page on.  ``page_id`` is
    the page of the entry last yielded, so a reader that wants to come back
    (MPMGJN's rescans) keeps ``(page_id, slot)`` and builds a new cursor
    there, which is charged its page again.
    """

    def __init__(self, pool, page_id, slot=0, page=None):
        self._pool = pool
        self.page_id = page_id
        self._slot = slot
        self._records = ()
        self._next_id = 0
        if page is not None:
            self._records = page.records
            self._next_id = page.next_id
        elif page_id:
            self._load(page_id)

    def __iter__(self):
        yield from iter_from(self._records, self._slot)
        while self._next_id:
            self._load(self._next_id)
            yield from self._records
        self._records = ()

    def _load(self, page_id):
        self._records, self._next_id = read_page(self._pool, page_id)
        self.page_id = page_id
