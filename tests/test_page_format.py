"""The on-disk page format is frozen, and every decoder guards its bounds.

``GOLDEN`` holds page images written by the encoder as it stood before the
one-call page codecs (PR 18): each must still decode to the fields of the
page :func:`golden_pages` builds under the same name and re-encode to the
same bytes, so files and archives written by earlier versions keep opening.
The hypothesis round trip covers the values in between, and the guard tests
hand every decoder a resealed image whose count field lies.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.bptree import BPlusInternalPage, BPlusLeafPage
from repro.indexes.xrtree.pages import (
    StabDirectoryPage,
    StabListPage,
    XRInternalPage,
    XRLeafPage,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.errors import ChecksumError, PageDecodeError
from repro.storage.pagedlist import ElementListPage, RecordPage
from repro.storage.pages import (
    PAGE_HEADER_SIZE,
    ElementEntry,
    Page,
    seal_image,
)

PAGE_SIZE = 128

INT32_MIN, INT32_MAX = -(2 ** 31), 2 ** 31 - 1
UINT32_MAX = 2 ** 32 - 1

#: Every field at the far end of its range.
EDGE = ElementEntry(-1, INT32_MAX, INT32_MAX, 65535, True, 2 ** 63 - 1)

RECORD_PAGES = (ElementListPage, BPlusLeafPage, XRLeafPage, StabListPage)
#: Types 2-8 — the seven decoders a database file is made of.
ON_DISK_PAGES = (ElementListPage, BPlusLeafPage, BPlusInternalPage,
                 XRLeafPage, StabListPage, StabDirectoryPage, XRInternalPage)


def _records(count):
    records = [ElementEntry(1, 10 * i + 1, 10 * i + 8, i % 7, i % 2 == 1, i)
               for i in range(count)]
    if count > 1:
        records[1] = ElementEntry(INT32_MIN, INT32_MIN, -1, 0, False,
                                  -(2 ** 63))
        records[-1] = EDGE
    return records


def _keys(count):
    keys = [100 * i for i in range(count)]
    if count > 1:
        keys[0], keys[-1] = INT32_MIN, INT32_MAX
    return keys


def golden_pages():
    """One empty, one single-entry and one full page of types 2-8."""
    pages = {}
    for cls in RECORD_PAGES:
        full = cls.capacity(PAGE_SIZE)
        pages[cls.__name__ + "/empty"] = cls()
        pages[cls.__name__ + "/one"] = cls(
            [ElementEntry(1, 2, 9, 3, True, 4)], 77)
        pages[cls.__name__ + "/full"] = cls(_records(full), UINT32_MAX - 1)

    full = BPlusInternalPage.capacity(PAGE_SIZE)
    pages["BPlusInternalPage/empty"] = BPlusInternalPage([], [7])
    pages["BPlusInternalPage/one"] = BPlusInternalPage([10], [7, 8])
    pages["BPlusInternalPage/full"] = BPlusInternalPage(
        _keys(full), [UINT32_MAX] + list(range(3, 3 + full)))

    full = StabDirectoryPage.capacity(PAGE_SIZE)
    pages["StabDirectoryPage/empty"] = StabDirectoryPage()
    pages["StabDirectoryPage/one"] = StabDirectoryPage([(INT32_MIN, 9)])
    pages["StabDirectoryPage/full"] = StabDirectoryPage(
        list(zip(_keys(full), range(UINT32_MAX, UINT32_MAX - full, -1))))

    full = XRInternalPage.capacity(PAGE_SIZE)
    pages["XRInternalPage/empty"] = XRInternalPage([], [7])
    pages["XRInternalPage/one"] = XRInternalPage(
        [10], [7, 8], [3], [40], sl_head=11, sl_dir=12, sl_count=5)
    pages["XRInternalPage/full"] = XRInternalPage(
        _keys(full), list(range(20, 21 + full)),
        [0, INT32_MAX] + [5] * (full - 2), [0, INT32_MAX] + [9] * (full - 2),
        sl_head=UINT32_MAX, sl_dir=UINT32_MAX - 1, sl_count=UINT32_MAX - 2)
    return pages


#: ``page.encode(128).rstrip(b"\0").hex()`` at commit bd3a42c (PR 17).
GOLDEN = {
    'ElementListPage/empty': (
        '02fb1057a5'
    ),
    'ElementListPage/one': (
        '02b8820fe401004d00000001000000020000000900000003000104'
    ),
    'ElementListPage/full': (
        '02485fd5440500feffffff010000000100000008000000000000000000000000'
        '00000000008000000080ffffffff000000000000000000008001000000150000'
        '001c0000000200000200000000000000010000001f0000002600000003000103'
        '00000000000000ffffffffffffff7fffffff7fffff01ffffffffffffff7f'
    ),
    'BPlusLeafPage/empty': (
        '03c8e5a896'
    ),
    'BPlusLeafPage/one': (
        '038b77f0d701004d00000001000000020000000900000003000104'
    ),
    'BPlusLeafPage/full': (
        '037baa2a770500feffffff010000000100000008000000000000000000000000'
        '00000000008000000080ffffffff000000000000000000008001000000150000'
        '001c0000000200000200000000000000010000001f0000002600000003000103'
        '00000000000000ffffffffffffff7fffffff7fffff01ffffffffffffff7f'
    ),
    'XRLeafPage/empty': (
        '0562dba83e'
    ),
    'XRLeafPage/one': (
        '052149f07f01004d00000001000000020000000900000003000104'
    ),
    'XRLeafPage/full': (
        '05d1942adf0500feffffff010000000100000008000000000000000000000000'
        '00000000008000000080ffffffff000000000000000000008001000000150000'
        '001c0000000200000200000000000000010000001f0000002600000003000103'
        '00000000000000ffffffffffffff7fffffff7fffff01ffffffffffffff7f'
    ),
    'StabListPage/empty': (
        '0637c4a86a'
    ),
    'StabListPage/one': (
        '067456f02b01004d00000001000000020000000900000003000104'
    ),
    'StabListPage/full': (
        '06848b2a8b0500feffffff010000000100000008000000000000000000000000'
        '00000000008000000080ffffffff000000000000000000008001000000150000'
        '001c0000000200000200000000000000010000001f0000002600000003000103'
        '00000000000000ffffffffffffff7fffffff7fffff01ffffffffffffff7f'
    ),
    'BPlusInternalPage/empty': (
        '04ead218e6000007'
    ),
    'BPlusInternalPage/one': (
        '047806d9130100070000000a00000008'
    ),
    'BPlusInternalPage/full': (
        '04687e52e70e00ffffffff00000080030000006400000004000000c800000005'
        '0000002c010000060000009001000007000000f4010000080000005802000009'
        '000000bc0200000a000000200300000b000000840300000c000000e80300000d'
        '0000004c0400000e000000b00400000f000000ffffff7f10'
    ),
    'StabDirectoryPage/empty': (
        '0704315759'
    ),
    'StabDirectoryPage/one': (
        '071a37176101000000008009'
    ),
    'StabDirectoryPage/full': (
        '07bf8d9f520f0000000080ffffffff64000000feffffffc8000000fdffffff2c'
        '010000fcffffff90010000fbfffffff4010000faffffff58020000f9ffffffbc'
        '020000f8ffffff20030000f7ffffff84030000f6ffffffe8030000f5ffffff4c'
        '040000f4ffffffb0040000f3ffffff14050000f2ffffffffffff7ff1ffffff'
    ),
    'XRInternalPage/empty': (
        '08ffa9696d000007'
    ),
    'XRInternalPage/one': (
        '08bdc8741c0100070000000b0000000c000000050000000a0000000300000028'
        '00000008'
    ),
    'XRInternalPage/full': (
        '08d6fa229d060014000000fffffffffefffffffdffffff000000800000000000'
        '0000001500000064000000ffffff7fffffff7f16000000c80000000500000009'
        '000000170000002c010000050000000900000018000000900100000500000009'
        '00000019000000ffffff7f05000000090000001a'
    ),
}


def fields(page):
    """Everything a page stores, with records spelled out field by field
    (``ElementEntry.__eq__`` ignores the flag and ``ptr``)."""
    state = {name: value for name, value in vars(page).items()
             if name not in ("page_id", "dirty", "pin_count")}
    if isinstance(page, RecordPage):
        state["records"] = [
            (r.doc_id, r.start, r.end, r.level, r.in_stab_list, r.ptr)
            for r in page.records]
    return state


def golden_image(name):
    return bytes.fromhex("".join(GOLDEN[name])).ljust(PAGE_SIZE, b"\x00")


class TestGoldenImages:
    def test_every_page_has_an_image(self):
        assert sorted(GOLDEN) == sorted(golden_pages())
        assert {type(page) for page in golden_pages().values()} \
            == set(ON_DISK_PAGES)

    @pytest.mark.parametrize("name", sorted(golden_pages()))
    def test_decodes_to_the_expected_fields(self, name):
        expected = golden_pages()[name]
        decoded = Page.decode(golden_image(name), PAGE_SIZE)
        assert type(decoded) is type(expected)
        assert fields(decoded) == fields(expected)

    @pytest.mark.parametrize("name", sorted(golden_pages()))
    def test_reencodes_byte_identically(self, name):
        image = golden_image(name)
        assert golden_pages()[name].encode(PAGE_SIZE) == image
        assert Page.decode(image, PAGE_SIZE).encode(PAGE_SIZE) == image

    def test_decoded_flags_are_real_bools(self):
        page = Page.decode(golden_image("XRLeafPage/full"), PAGE_SIZE)
        assert {r.in_stab_list for r in page.records} == {True, False}
        assert all(type(r.in_stab_list) is bool for r in page.records)


int32 = st.integers(INT32_MIN, INT32_MAX)
uint32 = st.integers(0, UINT32_MAX)
entries = st.builds(
    ElementEntry,
    st.sampled_from([-1, 0, 1, INT32_MIN, INT32_MAX]) | int32,
    st.just(INT32_MAX) | int32, st.just(INT32_MAX) | int32,
    st.just(65535) | st.integers(0, 65535), st.booleans(),
    st.just(2 ** 63 - 1) | st.integers(-(2 ** 63), 2 ** 63 - 1))


def _roundtrip(page):
    image = page.encode(PAGE_SIZE)
    assert len(image) == PAGE_SIZE and image == seal_image(image)
    decoded = Page.decode(image, PAGE_SIZE)
    assert type(decoded) is type(page)
    assert fields(decoded) == fields(page)
    assert decoded.encode(PAGE_SIZE) == image


class TestRoundTrip:
    @pytest.mark.parametrize("cls", RECORD_PAGES)
    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(entries, max_size=5), next_id=uint32)
    def test_record_pages(self, cls, records, next_id):
        assert cls.capacity(PAGE_SIZE) == 5
        _roundtrip(cls(records, next_id))

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(int32, max_size=14), first=uint32, data=st.data())
    def test_bplus_internal(self, keys, first, data):
        children = [first] + data.draw(
            st.lists(uint32, min_size=len(keys), max_size=len(keys)))
        _roundtrip(BPlusInternalPage(keys, children))

    @settings(max_examples=40, deadline=None)
    @given(quads=st.lists(st.tuples(int32, int32, int32, uint32), max_size=6),
           header=st.tuples(uint32, uint32, uint32, uint32))
    def test_xr_internal(self, quads, header):
        first, sl_head, sl_dir, sl_count = header
        keys, ps, pe, children = (
            [quad[i] for quad in quads] for i in range(4))
        _roundtrip(XRInternalPage(keys, [first] + children, ps, pe,
                                  sl_head, sl_dir, sl_count))

    @settings(max_examples=40, deadline=None)
    @given(directory=st.lists(st.tuples(int32, uint32), max_size=15))
    def test_stab_directory(self, directory):
        _roundtrip(StabDirectoryPage(directory))


_COUNT = struct.Struct("<H")  # every payload starts with its entry count


def _full_page(cls):
    return golden_pages()[cls.__name__ + "/full"]


def _claiming(image, count):
    forged = bytearray(image)
    _COUNT.pack_into(forged, PAGE_HEADER_SIZE, count)
    return seal_image(forged)


class TestBoundsGuards:
    @pytest.mark.parametrize("cls", ON_DISK_PAGES)
    @pytest.mark.parametrize("extra", [1, None])
    def test_overclaimed_count_is_a_decode_error(self, cls, extra):
        image = _full_page(cls).encode(PAGE_SIZE)
        (count,) = _COUNT.unpack_from(image, PAGE_HEADER_SIZE)
        assert count == cls.capacity(PAGE_SIZE)
        forged = _claiming(image, 0xFFFF if extra is None else count + extra)
        with pytest.raises(PageDecodeError) as excinfo:
            Page.decode(forged, PAGE_SIZE)
        # The decoder's own guard, not a normalised struct/ValueError leak
        # from unpacking a ragged slice, and not the CRC.
        assert type(excinfo.value) is PageDecodeError
        assert excinfo.value.__cause__ is None
        assert "claims" in str(excinfo.value)

    @pytest.mark.parametrize("cls", ON_DISK_PAGES)
    def test_stale_crc_names_the_page(self, cls):
        disk = InMemoryDisk(PAGE_SIZE)
        pool = BufferPool(disk, capacity=4)
        page = pool.new_page(_full_page(cls))
        page_id = page.page_id
        pool.unpin(page, dirty=True)
        pool.flush_all()
        pool.clear()
        stale = bytearray(disk.peek(page_id))
        _COUNT.pack_into(stale, PAGE_HEADER_SIZE, 0xFFFF)
        disk.poke(page_id, bytes(stale))  # count forged, CRC not resealed
        with pytest.raises(ChecksumError) as excinfo:
            pool.fetch(page_id)
        assert excinfo.value.page_id == page_id
