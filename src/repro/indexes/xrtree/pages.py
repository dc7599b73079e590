"""Page layouts for XR-tree nodes, stab lists and ps directories.

Key entries in internal nodes follow Definition 4(2): ``(k_i, ps_i, pe_i)``
triples plus ``m + 1`` child pointers.  ``(ps_i, pe_i)`` is the region of the
first element of key ``k_i``'s primary stab list, or ``(0, 0)`` (our nil) when
the PSL is empty — start positions are always >= 1, so 0 is safe as nil.

Stab lists are chains of :class:`StabListPage` holding element records sorted
by ``start``.  PSL membership is *derived*: the primary stabbing key of an
element ``(s, e)`` is the smallest key >= ``s`` (Definition 1), so within one
node the records with ``k_{j-1} < s <= k_j`` form exactly ``PSL_j``, and the
global start-order equals PSL-concatenation order.  Because membership is
derived, inserting or removing an index key never rewrites the stab list.

The :class:`StabDirectoryPage` reproduces the paper's "ps directory page": a
single page of ``(first_start, page_id)`` entries — one per stab-list page —
that locates the page holding any PSL head with one extra I/O.  (The paper's
directory maps each *key* to its PSL head; ours maps each *chain page* to its
first start, which supports the same one-indirection lookup with the same 1-2
I/O bound and is cheaper to maintain.  DESIGN.md records this substitution.)
"""

import struct
from bisect import bisect_left, bisect_right
from itertools import starmap

from repro.storage.errors import PageDecodeError
from repro.storage.pagedlist import RecordPage
from repro.storage.pages import PAGE_HEADER_SIZE, Page, register_page_type

#: Encoded nil for (ps, pe) fields.
NIL = 0


@register_page_type
class XRLeafPage(RecordPage):
    """Leaf page (Definition 4(6-7)): ``(s, e, level, InStabList, ptr)``
    entries keyed on ``s``, linked left to right."""

    TYPE_ID = 5


@register_page_type
class StabListPage(RecordPage):
    """One page of a stab-list chain: element records sorted by start."""

    TYPE_ID = 6


@register_page_type
class StabDirectoryPage(Page):
    """The ps directory: ``(first_start, page_id)`` per stab-list page."""

    TYPE_ID = 7
    _HEADER = struct.Struct("<H")
    _ENTRY = struct.Struct("<iI")

    def __init__(self, entries=None):
        self.entries = list(entries) if entries else []

    @classmethod
    def capacity(cls, page_size):
        return (page_size - PAGE_HEADER_SIZE - cls._HEADER.size) \
            // cls._ENTRY.size

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.entries))
        body = b"".join(starmap(self._ENTRY.pack, self.entries))
        out[self._HEADER.size : self._HEADER.size + len(body)] = body

    @classmethod
    def decode_payload(cls, data, page_size):
        (count,) = cls._HEADER.unpack_from(data, 0)
        end = cls._HEADER.size + count * cls._ENTRY.size
        if end > len(data):
            raise PageDecodeError(
                "stab directory page claims %d entries but the payload "
                "holds at most %d"
                % (count, (len(data) - cls._HEADER.size) // cls._ENTRY.size)
            )
        page = cls.__new__(cls)
        page.entries = list(
            cls._ENTRY.iter_unpack(data[cls._HEADER.size : end]))
        return page


@register_page_type
class XRInternalPage(Page):
    """Internal node (Definition 4(2-5)).

    Layout: header (key count, first child, stab-list head page, directory
    page, stab-list length) followed by ``(key, ps, pe, child)`` quads.
    """

    TYPE_ID = 8
    _HEADER = struct.Struct("<HIIII")
    _ENTRY = struct.Struct("<iiiI")  # key, ps, pe, right child

    def __init__(self, keys=None, children=None, ps=None, pe=None,
                 sl_head=0, sl_dir=0, sl_count=0):
        self.keys = list(keys) if keys else []
        self.children = list(children) if children else []
        self.ps = list(ps) if ps else [NIL] * len(self.keys)
        self.pe = list(pe) if pe else [NIL] * len(self.keys)
        self.sl_head = sl_head
        self.sl_dir = sl_dir
        self.sl_count = sl_count

    @classmethod
    def capacity(cls, page_size):
        """Maximum keys per node: ``B_I`` in Section 3.3."""
        # 4 = first child pointer
        avail = page_size - PAGE_HEADER_SIZE - cls._HEADER.size - 4
        return avail // cls._ENTRY.size

    def encode_payload(self, out):
        self._HEADER.pack_into(
            out, 0, len(self.keys), self.children[0] if self.children else 0,
            self.sl_head, self.sl_dir, self.sl_count,
        )
        body = b"".join(starmap(self._ENTRY.pack, zip(
            self.keys, self.ps, self.pe, self.children[1:], strict=True)))
        out[self._HEADER.size : self._HEADER.size + len(body)] = body

    @classmethod
    def decode_payload(cls, data, page_size):
        count, first_child, sl_head, sl_dir, sl_count = cls._HEADER.unpack_from(
            data, 0
        )
        end = cls._HEADER.size + count * cls._ENTRY.size
        if end > len(data):
            raise PageDecodeError(
                "XR-tree internal page claims %d keys but the payload "
                "holds at most %d"
                % (count, (len(data) - cls._HEADER.size) // cls._ENTRY.size)
            )
        columns = zip(*cls._ENTRY.iter_unpack(data[cls._HEADER.size : end]))
        keys, ps, pe, children = columns if count else ((), (), (), ())
        page = cls.__new__(cls)
        page.keys = list(keys)
        page.children = [first_child, *children]
        page.ps = list(ps)
        page.pe = list(pe)
        page.sl_head = sl_head
        page.sl_dir = sl_dir
        page.sl_count = sl_count
        return page

    # -- key helpers -----------------------------------------------------------

    def child_index_for(self, key):
        """Child to descend into for ``key`` (Definition 4(3) semantics)."""
        return bisect_right(self.keys, key)

    def primary_key_index(self, start):
        """Index of the smallest key >= ``start`` (the primary stabbing key
        of an element starting at ``start``), or None."""
        index = bisect_left(self.keys, start)
        return index if index < len(self.keys) else None

    def stabs(self, start, end):
        """True iff some key of this node stabs the region (Definition 1)."""
        index = self.primary_key_index(start)
        return index is not None and self.keys[index] <= end

    def psl_bounds(self, index):
        """Start-range ``(low, high]`` of ``PSL_index`` in the stab list."""
        low = self.keys[index - 1] if index > 0 else -(2 ** 31)
        return low, self.keys[index]
