"""A tiny on-disk catalog making indexes and element lists reopenable.

The tree classes keep their metadata (root page, height, size, capacities)
in Python attributes; the catalog persists that metadata into a dedicated
page so a database file created with :class:`~repro.storage.disk.FileDisk`
can be closed and reopened — the missing piece between "index structure" and
"storage engine".

Usage::

    catalog = Catalog.create(pool)          # on a fresh disk (page 1)
    catalog.save_xrtree("emps", tree)
    ...
    catalog = Catalog.open(pool)            # after reopening the disk
    tree = catalog.load_xrtree("emps")
"""

import struct

from repro.storage.errors import PageDecodeError, RecoveryError, StorageError
from repro.storage.pages import PAGE_HEADER_SIZE, Page, register_page_type

KIND_BPLUS = 1
KIND_XRTREE = 2
KIND_ELEMENT_LIST = 3
KIND_BLOB = 4

_KIND_NAMES = {KIND_BPLUS: "b+tree", KIND_XRTREE: "xr-tree",
               KIND_ELEMENT_LIST: "element-list", KIND_BLOB: "blob"}


class CatalogError(StorageError):
    """Unknown names, duplicate names, kind mismatches."""


@register_page_type
class CatalogPage(Page):
    """One page of named structure descriptors."""

    TYPE_ID = 9
    _HEADER = struct.Struct("<HI")  # entry count, next catalog page (0=nil)
    _ENTRY = struct.Struct("<32sBIIQII")
    # name, kind, root/head page, height/page-count, size/length,
    # leaf capacity, internal capacity

    def __init__(self, entries=None, next_id=0):
        self.entries = list(entries) if entries else []
        self.next_id = next_id

    @classmethod
    def capacity(cls, page_size):
        return (page_size - PAGE_HEADER_SIZE - cls._HEADER.size) \
            // cls._ENTRY.size

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.entries), self.next_id)
        offset = self._HEADER.size
        for entry in self.entries:
            name = entry["name"].encode("utf-8")
            if len(name) > 32:
                raise CatalogError("name %r exceeds 32 bytes" % entry["name"])
            self._ENTRY.pack_into(
                out, offset,
                name, entry["kind"], entry["root"], entry["height"],
                entry["size"], entry["leaf_capacity"],
                entry["internal_capacity"],
            )
            offset += self._ENTRY.size

    @classmethod
    def decode_payload(cls, data, page_size):
        count, next_id = cls._HEADER.unpack_from(data, 0)
        if cls._HEADER.size + count * cls._ENTRY.size > len(data):
            raise PageDecodeError(
                "catalog page claims %d entries but the payload holds at "
                "most %d" % (count,
                             (len(data) - cls._HEADER.size) // cls._ENTRY.size)
            )
        offset = cls._HEADER.size
        entries = []
        for _ in range(count):
            name, kind, root, height, size, leaf_cap, internal_cap = \
                cls._ENTRY.unpack_from(data, offset)
            entries.append({
                "name": name.rstrip(b"\x00").decode("utf-8"),
                "kind": kind, "root": root, "height": height, "size": size,
                "leaf_capacity": leaf_cap, "internal_capacity": internal_cap,
            })
            offset += cls._ENTRY.size
        return cls(entries, next_id)


@register_page_type
class BlobPage(Page):
    """One page of an arbitrary byte blob (chained)."""

    TYPE_ID = 12
    _HEADER = struct.Struct("<HI")  # bytes in this page, next page id

    def __init__(self, data=b"", next_id=0):
        self.data = bytes(data)
        self.next_id = next_id

    @classmethod
    def capacity(cls, page_size):
        return page_size - PAGE_HEADER_SIZE - cls._HEADER.size

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.data), self.next_id)
        out[self._HEADER.size : self._HEADER.size + len(self.data)] = self.data

    @classmethod
    def decode_payload(cls, data, page_size):
        length, next_id = cls._HEADER.unpack_from(data, 0)
        start = cls._HEADER.size
        if start + length > len(data):
            raise PageDecodeError(
                "blob page claims %d bytes but only %d are present"
                % (length, len(data) - start)
            )
        return cls(data[start : start + length], next_id)


class Catalog:
    """Named persistence for B+-trees, XR-trees, element lists and blobs."""

    def __init__(self, pool, page_id):
        self._pool = pool
        self.page_id = page_id

    @classmethod
    def create(cls, pool):
        """Allocate the catalog page on a fresh disk (it becomes page 1)."""
        page = pool.new_page(CatalogPage())
        page_id = page.page_id
        pool.unpin(page, dirty=True)
        return cls(pool, page_id)

    @classmethod
    def open(cls, pool, page_id=1):
        """Attach to an existing catalog (default: the first disk page).

        Raises :class:`~repro.storage.errors.RecoveryError` when the
        catalog root cannot be decoded — the database file survived the
        crash, but its naming root did not, which recovery cannot repair.
        """
        try:
            with pool.pinned(page_id) as page:
                if not isinstance(page, CatalogPage):
                    raise CatalogError(
                        "page %d is not a catalog page" % page_id)
        except PageDecodeError as exc:
            raise RecoveryError(
                "catalog root page %d is unreadable: %s" % (page_id, exc)
            ) from exc
        return cls(pool, page_id)

    # -- raw entry access ------------------------------------------------------

    def _pages(self):
        page_id = self.page_id
        while page_id:
            yield page_id
            with self._pool.pinned(page_id) as page:
                page_id = page.next_id

    def _find(self, name):
        for page_id in self._pages():
            with self._pool.pinned(page_id) as page:
                for index, entry in enumerate(page.entries):
                    if entry["name"] == name:
                        return page_id, index, dict(entry)
        return None, None, None

    def names(self):
        """All catalogued names with their kinds."""
        out = {}
        for page_id in self._pages():
            with self._pool.pinned(page_id) as page:
                for entry in page.entries:
                    out[entry["name"]] = _KIND_NAMES[entry["kind"]]
        return out

    def _put(self, entry):
        page_id, index, _existing = self._find(entry["name"])
        if page_id is not None:
            with self._pool.pinned(page_id) as page:
                page.entries[index] = entry
                page.mark_dirty()
            return
        capacity = CatalogPage.capacity(self._pool.page_size)
        last_id = None
        for last_id in self._pages():
            pass
        with self._pool.pinned(last_id) as page:
            if len(page.entries) < capacity:
                page.entries.append(entry)
                page.mark_dirty()
                return
        overflow = self._pool.new_page(CatalogPage([entry]))
        overflow_id = overflow.page_id
        self._pool.unpin(overflow, dirty=True)
        with self._pool.pinned(last_id) as page:
            page.next_id = overflow_id
            page.mark_dirty()

    def remove(self, name):
        """Drop a catalog entry (the structure's pages are not freed)."""
        page_id, index, _entry = self._find(name)
        if page_id is None:
            raise CatalogError("no catalogued structure named %r" % name)
        with self._pool.pinned(page_id) as page:
            page.entries.pop(index)
            page.mark_dirty()

    def _get(self, name, kind):
        _page, _index, entry = self._find(name)
        if entry is None:
            raise CatalogError("no catalogued structure named %r" % name)
        if entry["kind"] != kind:
            raise CatalogError(
                "%r is a %s, not a %s" % (
                    name, _KIND_NAMES[entry["kind"]], _KIND_NAMES[kind])
            )
        return entry

    # -- typed save/load --------------------------------------------------------

    def save_bptree(self, name, tree):
        self._put({
            "name": name, "kind": KIND_BPLUS, "root": tree.root_id,
            "height": tree.height, "size": tree.size,
            "leaf_capacity": tree.leaf_capacity,
            "internal_capacity": tree.internal_capacity,
        })

    def load_bptree(self, name):
        from repro.indexes.bptree import BPlusTree

        entry = self._get(name, KIND_BPLUS)
        tree = BPlusTree(self._pool, entry["leaf_capacity"],
                         entry["internal_capacity"])
        tree.root_id = entry["root"]
        tree.height = entry["height"]
        tree.size = entry["size"]
        return tree

    def save_xrtree(self, name, tree):
        self._put({
            "name": name, "kind": KIND_XRTREE, "root": tree.root_id,
            "height": tree.height, "size": tree.size,
            "leaf_capacity": tree.leaf_capacity,
            "internal_capacity": tree.internal_capacity,
        })

    def load_xrtree(self, name, optimize_split_keys=True):
        from repro.indexes.xrtree import XRTree

        entry = self._get(name, KIND_XRTREE)
        tree = XRTree(self._pool, entry["leaf_capacity"],
                      entry["internal_capacity"],
                      optimize_split_keys=optimize_split_keys)
        tree.root_id = entry["root"]
        tree.height = entry["height"]
        tree.size = entry["size"]
        return tree

    def save_element_list(self, name, element_list):
        self._put({
            "name": name, "kind": KIND_ELEMENT_LIST,
            "root": element_list.head_id,
            "height": element_list.page_count,
            "size": element_list.length,
            "leaf_capacity": 0, "internal_capacity": 0,
        })

    def load_element_list(self, name):
        from repro.storage.pagedlist import PagedElementList

        entry = self._get(name, KIND_ELEMENT_LIST)
        return PagedElementList(self._pool, entry["root"], entry["size"],
                                entry["height"])

    def save_blob(self, name, data):
        """Store arbitrary bytes under ``name`` (replacing any prior blob)."""
        page_id, _index, existing = self._find(name)
        if existing is not None:
            if existing["kind"] != KIND_BLOB:
                raise CatalogError("%r exists and is not a blob" % name)
            self._free_blob_chain(existing["root"])
        capacity = BlobPage.capacity(self._pool.page_size)
        chunks = [data[i : i + capacity]
                  for i in range(0, len(data), capacity)] or [b""]
        head_id = 0
        previous = None
        page_count = 0
        for chunk in chunks:
            page = self._pool.new_page(BlobPage(chunk))
            page_count += 1
            if previous is None:
                head_id = page.page_id
            else:
                previous.next_id = page.page_id
                self._pool.unpin(previous, dirty=True)
            previous = page
        self._pool.unpin(previous, dirty=True)
        self._put({
            "name": name, "kind": KIND_BLOB, "root": head_id,
            "height": page_count, "size": len(data),
            "leaf_capacity": 0, "internal_capacity": 0,
        })

    def load_blob(self, name):
        """Read back the bytes stored under ``name``."""
        entry = self._get(name, KIND_BLOB)
        parts = []
        page_id = entry["root"]
        while page_id:
            with self._pool.pinned(page_id) as page:
                parts.append(page.data)
                page_id = page.next_id
        return b"".join(parts)

    def _free_blob_chain(self, head_id):
        page_id = head_id
        while page_id:
            page = self._pool.fetch(page_id)
            next_id = page.next_id
            self._pool.free_page(page)
            page_id = next_id
