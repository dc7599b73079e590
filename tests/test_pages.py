"""Tests for page codecs and ElementEntry (repro.storage.pages)."""

import copy
import pickle
import struct
import zlib

import pytest

from repro.indexes.bptree import BPlusInternalPage
from repro.indexes.xrtree.pages import StabDirectoryPage, XRInternalPage
from repro.storage import pages
from repro.storage.errors import ChecksumError, PageDecodeError, StorageError
from repro.storage.pagedlist import ElementListPage
from repro.storage.pages import (
    PAGE_HEADER_SIZE,
    ElementEntry,
    Page,
    RawPage,
    page_checksum,
    page_codec,
    register_page_type,
    seal_image,
)
from tests.conftest import entry


class TestRawPageCodec:
    def test_roundtrip(self):
        page = RawPage(b"payload bytes")
        data = page.encode(256)
        decoded = Page.decode(data, 256)
        assert isinstance(decoded, RawPage)
        assert decoded.payload == b"payload bytes"

    def test_empty_payload(self):
        decoded = Page.decode(RawPage(b"").encode(128), 128)
        assert decoded.payload == b""

    def test_decode_with_trailing_padding(self):
        data = RawPage(b"abc").encode(64) + b"\x00" * 32
        assert Page.decode(data, 64).payload == b"abc"

    def test_oversized_payload_rejected(self):
        with pytest.raises(PageDecodeError):
            RawPage(b"x" * 300).encode(256)

    def test_field_the_record_cannot_hold_is_a_storage_error(self):
        """Not the raw ``struct.error`` buffer-pool write-back used to leak."""
        for bad in (entry(2 ** 31, 2 ** 31 + 1), entry(1, 2, level=65536),
                    entry(1, 2, ptr=2 ** 63)):
            with pytest.raises(StorageError, match="ElementListPage"):
                ElementListPage([entry(1, 2), bad]).encode(128)

    def test_unknown_type_byte_rejected(self):
        with pytest.raises(PageDecodeError):
            Page.decode(bytes([250]) + b"junk", 64)

    def test_empty_image_rejected(self):
        with pytest.raises(PageDecodeError):
            Page.decode(b"", 64)

    def test_codec_registry_lookup(self):
        assert page_codec(RawPage.TYPE_ID) is RawPage


class TestChecksums:
    def test_encode_seals_a_valid_checksum(self):
        image = RawPage(b"abc").encode(64)
        assert len(image) == 64
        assert image == seal_image(image)

    def test_any_flipped_bit_is_detected(self):
        image = RawPage(b"checksummed payload").encode(64)
        for byte_index in (0, 3, PAGE_HEADER_SIZE, 40, 63):
            corrupt = bytearray(image)
            corrupt[byte_index] ^= 0x10
            with pytest.raises(ChecksumError):
                Page.decode(bytes(corrupt), 64)

    def test_reseal_makes_an_edited_image_decodable(self):
        image = bytearray(RawPage(b"abc").encode(64))
        # First payload byte sits after the page header and RawPage's own
        # 4-byte length field.
        image[PAGE_HEADER_SIZE + 4] = ord("z")
        with pytest.raises(ChecksumError):
            Page.decode(bytes(image), 64)
        assert Page.decode(seal_image(image), 64).payload == b"zbc"

    def test_verification_can_be_skipped(self):
        image = bytearray(RawPage(b"abc").encode(64))
        image[-1] ^= 0xFF
        decoded = Page.decode(bytes(image), 64, verify=False)
        assert decoded.payload.startswith(b"abc")

    def test_truncated_image_rejected(self):
        image = RawPage(b"abc").encode(64)
        with pytest.raises(PageDecodeError):
            Page.decode(image[:PAGE_HEADER_SIZE - 1], 64)


class TestDecodeFastPath:
    """The decode a page miss runs: one CRC call seeded by the registered
    header prefix, normalisation only of an image that needs it, and a
    page that owns the lists it was decoded into."""

    @staticmethod
    def _prefix_crc_matches(type_id):
        image = bytes([type_id]) + b"\xde\xad\xbe\xef" + bytes(range(59))
        _cls, prefix = pages._PAGE_TYPES[type_id]
        return zlib.crc32(image[PAGE_HEADER_SIZE:], prefix) \
            == page_checksum(image)

    def test_prefix_crc_matches_page_checksum_for_every_type(self):
        assert len(pages._PAGE_TYPES) >= 10
        for type_id in pages._PAGE_TYPES:
            assert self._prefix_crc_matches(type_id), type_id

    def test_a_type_registered_later_gets_its_prefix(self):
        type_id = next(t for t in range(255, 0, -1)
                       if t not in pages._PAGE_TYPES)

        class LatePage(RawPage):
            TYPE_ID = type_id

        register_page_type(LatePage)
        try:
            assert self._prefix_crc_matches(type_id)
            decoded = Page.decode(LatePage(b"late").encode(64), 64)
            assert type(decoded) is LatePage and decoded.payload == b"late"
        finally:
            del pages._PAGE_TYPES[type_id]

    def test_bytearray_and_memoryview_images_decode(self):
        image = RawPage(b"abc").encode(64)
        for variant in (bytearray(image), memoryview(image),
                        bytearray(image + b"\xff" * 8)):
            assert Page.decode(variant, 64).payload == b"abc"

    def test_over_long_image_is_cut_to_the_page_size(self):
        image = ElementListPage([entry(1, 2)]).encode(128)
        decoded = Page.decode(image + b"\x07" * 40, 128)
        assert decoded.records == [entry(1, 2)]

    def test_empty_and_short_images_still_raise(self):
        for image in (b"", bytearray(), memoryview(b"")):
            with pytest.raises(PageDecodeError, match="empty page image"):
                Page.decode(image, 64)
        with pytest.raises(PageDecodeError, match="shorter than"):
            Page.decode(bytearray(RawPage(b"a").encode(64)[:3]), 64)

    def test_unknown_type_with_a_stale_crc_is_a_checksum_error(self):
        image = bytearray(RawPage(b"abc").encode(64))
        image[0] = 250
        with pytest.raises(ChecksumError):
            Page.decode(bytes(image), 64)
        with pytest.raises(PageDecodeError, match="unknown page type 250") \
                as caught:
            Page.decode(seal_image(image), 64)
        assert type(caught.value) is PageDecodeError

    def test_stored_crc_is_read_from_the_header(self):
        image = bytearray(RawPage(b"abc").encode(64))
        struct.pack_into("<I", image, 1, page_checksum(image) ^ 1)
        with pytest.raises(ChecksumError, match="stored 0x"):
            Page.decode(bytes(image), 64)

    def test_decoded_record_page_owns_its_list(self):
        image = ElementListPage([entry(1, 4), entry(2, 3)], 9).encode(128)
        first = Page.decode(image, 128)
        second = Page.decode(image, 128)
        assert first.records is not second.records
        first.records.append(entry(5, 6))
        assert second.records == [entry(1, 4), entry(2, 3)]
        assert Page.decode(image, 128).records == second.records
        assert (first.page_id, first.dirty, first.pin_count) \
            == (None, False, 0)

    def test_decoded_internal_and_directory_pages_own_their_lists(self):
        for page in (BPlusInternalPage([10, 20], [1, 2, 3]),
                     XRInternalPage([10, 20], [1, 2, 3], [4, 5], [6, 7],
                                    sl_head=8, sl_dir=9, sl_count=2),
                     StabDirectoryPage([(1, 2), (3, 4)])):
            image = page.encode(256)
            first = Page.decode(image, 256)
            second = Page.decode(image, 256)
            assert vars(first) == vars(second) == vars(page)
            for name, value in vars(first).items():
                if isinstance(value, list):
                    assert type(value) is list
                    assert value is not getattr(second, name)
                    value.append(0)
            assert vars(second) == vars(page)


class TestElementEntryCodec:
    def test_pack_unpack_roundtrip(self):
        original = ElementEntry(3, 17, 90, 4, True, 1234567890123)
        packed = original.pack()
        assert len(packed) == ElementEntry.SIZE
        restored = ElementEntry.unpack_from(packed, 0)
        assert restored == original
        assert restored.in_stab_list is True
        assert restored.ptr == 1234567890123

    def test_unpack_at_offset(self):
        a = entry(1, 10)
        b = entry(2, 5)
        blob = a.pack() + b.pack()
        assert ElementEntry.unpack_from(blob, ElementEntry.SIZE) == b

    def test_negative_doc_id_roundtrips(self):
        original = ElementEntry(-1, 5, 9, 0)
        assert ElementEntry.unpack_from(original.pack(), 0) == original


class TestElementEntryValue:
    """What the rest of the library relies on an entry being."""

    def test_equality_and_hash_ignore_flag_and_ptr(self):
        plain, flagged = entry(1, 9), entry(1, 9, flag=True, ptr=7)
        assert plain == flagged and not plain != flagged
        assert hash(plain) == hash(flagged)
        for other in (entry(2, 9), entry(1, 8), entry(1, 9, level=2),
                      entry(1, 9, doc=2)):
            assert plain != other and not plain == other
        assert plain != (1, 1, 9, 1) and plain != None  # noqa: E711

    def test_usable_in_sets_and_as_dict_keys(self):
        seen = {entry(1, 9), entry(1, 9, flag=True, ptr=3), entry(2, 5)}
        assert len(seen) == 2
        owners = {entry(1, 9): "leaf"}
        assert owners[entry(1, 9, flag=True, ptr=99)] == "leaf"

    def test_unordered(self):
        with pytest.raises(TypeError):
            sorted([entry(2, 5), entry(1, 9)])

    def test_with_flag_returns_a_new_object(self):
        original = entry(1, 9, flag=False, ptr=42)
        flagged = original.with_flag(True)
        assert flagged is not original
        assert flagged.in_stab_list is True
        assert original.in_stab_list is False
        assert (flagged.doc_id, flagged.start, flagged.end, flagged.level,
                flagged.ptr) == (1, 1, 9, 1, 42)

    def test_decoded_flag_is_a_real_bool(self):
        image = ElementListPage([entry(1, 2, flag=True),
                                 entry(3, 4, flag=False)]).encode(128)
        on, off = Page.decode(image, 128).records
        assert on.in_stab_list is True
        assert off.in_stab_list is False
        assert ElementEntry.unpack_from(on.pack(), 0).in_stab_list is True

    def test_copy_and_pickle_roundtrip(self):
        original = ElementEntry(3, 17, 90, 4, True, 1234567890123)
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert clone == original
            assert (clone.in_stab_list, clone.ptr) == (True, 1234567890123)

    def test_repr_text(self):
        assert repr(ElementEntry(3, 17, 90, 4)) == (
            "ElementEntry(doc_id=3, start=17, end=90, level=4, "
            "in_stab_list=False, ptr=0)")
        assert repr(entry(1, 2, flag=True, ptr=-5)).endswith(
            "in_stab_list=True, ptr=-5)")

    def test_immutability_is_a_documented_convention(self):
        """PR 18 traded the frozen dataclass's enforcement for a cheap
        record: the class says so, carries no ``__dict__`` to grow stray
        attributes in, and nothing but construction sets a field."""
        assert "never be assigned to" in " ".join(ElementEntry.__doc__.split())
        assert not hasattr(entry(1, 2), "__dict__")
        with pytest.raises(AttributeError):
            entry(1, 2).parent = None


class TestElementEntryPredicates:
    def test_contains_strict_nesting(self):
        outer, inner = entry(1, 100), entry(5, 50)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_requires_same_document(self):
        assert not entry(1, 100, doc=1).contains(entry(5, 50, doc=2))

    def test_element_does_not_contain_itself(self):
        e = entry(3, 9)
        assert not e.contains(e)

    def test_disjoint_regions_do_not_contain(self):
        assert not entry(1, 4).contains(entry(5, 9))

    def test_is_parent_of_checks_level(self):
        parent = entry(1, 100, level=2)
        child = entry(5, 50, level=3)
        grandchild = entry(10, 20, level=4)
        assert parent.is_parent_of(child)
        assert not parent.is_parent_of(grandchild)

    def test_stabbed_by_boundaries_inclusive(self):
        e = entry(10, 20)
        assert e.stabbed_by(10)
        assert e.stabbed_by(20)
        assert e.stabbed_by(15)
        assert not e.stabbed_by(9)
        assert not e.stabbed_by(21)

    def test_with_flag_copies(self):
        e = entry(1, 2, flag=False, ptr=42)
        flagged = e.with_flag(True)
        assert flagged.in_stab_list is True
        assert flagged.ptr == 42
        assert e.in_stab_list is False

    def test_flag_and_ptr_excluded_from_equality(self):
        assert entry(1, 9, flag=False, ptr=0) == entry(1, 9, flag=True, ptr=7)
        assert hash(entry(1, 9, flag=False)) == hash(entry(1, 9, flag=True))

    def test_region_and_sort_key(self):
        e = entry(4, 8, doc=2)
        assert e.region == (4, 8)
        assert e.sort_key() == (2, 4)
