"""Typed on-disk pages and their byte codecs.

Every page image starts with a fixed header: a one-byte type tag used to
dispatch decoding to the registered page class, followed by a CRC-32 of the
whole page image (computed with the checksum field zeroed).  Concrete page
classes (B+-tree nodes, XR-tree nodes, stab list pages, element list pages,
...) live next to the structures that own them and register themselves with
:func:`register_page_type`.

:meth:`Page.encode` seals the checksum; :meth:`Page.decode` verifies it and
raises :class:`~repro.storage.errors.ChecksumError` on mismatch, so every
buffer-pool fetch detects torn writes and bit rot before any payload byte is
interpreted.
"""

import struct
import zlib

from repro.storage.errors import ChecksumError, PageDecodeError

DEFAULT_PAGE_SIZE = 4096

_CHECKSUM = struct.Struct("<I")

#: Bytes every page image reserves before the payload: type tag + CRC-32.
PAGE_HEADER_SIZE = 1 + _CHECKSUM.size

_ZEROED_CHECKSUM = bytes(_CHECKSUM.size)


def _prefix_crc(type_id):
    """CRC-32 of a header with tag ``type_id`` and its checksum field zeroed:
    the seed that :func:`page_checksum` continues over the payload."""
    return zlib.crc32(_ZEROED_CHECKSUM, zlib.crc32(bytes((type_id,))))


def page_checksum(image):
    """CRC-32 of a full page image, with the checksum field zeroed (the
    header's prefix CRC continued over a view of the payload: no copy)."""
    return zlib.crc32(memoryview(image)[PAGE_HEADER_SIZE:],
                      _prefix_crc(image[0]))


def seal_image(image):
    """Recompute and embed the checksum of a raw page image.

    Used by tests and tools that hand-craft page bytes and want them to
    pass verification (e.g. to corrupt a *payload* field surgically).
    """
    buf = bytearray(image)
    _CHECKSUM.pack_into(buf, 1, page_checksum(buf))
    return bytes(buf)


#: Registry mapping the page-type byte to ``(page class, prefix CRC)``.
_PAGE_TYPES = {}


def register_page_type(cls):
    """Class decorator registering ``cls`` under its ``TYPE_ID`` byte, with
    the CRC of its header prefix so a decode checksums only the payload."""
    type_id = cls.TYPE_ID
    if not isinstance(type_id, int) or not 0 <= type_id <= 255:
        raise ValueError("TYPE_ID must be a byte, got %r" % (type_id,))
    existing = _PAGE_TYPES.get(type_id)
    if existing is not None and existing[0] is not cls:
        raise ValueError(
            "page type %d already registered by %s"
            % (type_id, existing[0].__name__)
        )
    _PAGE_TYPES[type_id] = (cls, _prefix_crc(type_id))
    return cls


def page_codec(type_id):
    """Return the page class registered for ``type_id``."""
    try:
        return _PAGE_TYPES[type_id][0]
    except KeyError:
        raise PageDecodeError("unknown page type %d" % type_id)


class Page:
    """Base class for all typed pages.

    Subclasses define a ``TYPE_ID`` byte, ``encode_payload`` and
    ``decode_payload``.  The buffer pool keeps decoded page objects in memory
    and serializes them back on eviction or flush.

    A page's frame state starts from the class defaults below and becomes
    the instance's own when the buffer pool first sets it, so a decoder
    builds its page with ``cls.__new__(cls)`` and the fields it decoded —
    no constructor chain and no copy of the lists it just made.
    """

    TYPE_ID = None
    page_id = None
    dirty = False
    pin_count = 0

    def mark_dirty(self):
        self.dirty = True

    # -- codec ---------------------------------------------------------------

    def encode(self, page_size):
        """Serialize to a full checksummed page image of ``page_size`` bytes.

        A payload that does not fit the page, or a field its record format
        cannot hold, raises :class:`~repro.storage.errors.PageDecodeError`
        (never a raw ``struct.error`` out of buffer-pool write-back).
        """
        image = bytearray(page_size)
        image[0] = self.TYPE_ID
        try:
            self.encode_payload(memoryview(image)[PAGE_HEADER_SIZE:])
        except (struct.error, ValueError) as exc:
            raise PageDecodeError(
                "%s does not encode into a %d-byte page: %s"
                % (type(self).__name__, page_size, exc)
            ) from exc
        _CHECKSUM.pack_into(image, 1, page_checksum(image))
        return bytes(image)

    @classmethod
    def decode(cls, data, page_size, verify=True):
        """Decode raw disk bytes into the registered page object.

        Verifies the page checksum first (raising
        :class:`~repro.storage.errors.ChecksumError` on mismatch) unless
        ``verify`` is False, then dispatches on the type tag, handing the
        payload on as a view.  Any raw ``struct``/index error a payload
        decoder leaks is normalized to
        :class:`~repro.storage.errors.PageDecodeError`.
        """
        if not data:
            raise PageDecodeError("empty page image")
        if type(data) is not bytes or len(data) != page_size:
            data = bytes(data[:page_size])
        if len(data) < PAGE_HEADER_SIZE:
            raise PageDecodeError(
                "page image of %d bytes is shorter than the %d-byte header"
                % (len(data), PAGE_HEADER_SIZE)
            )
        payload = memoryview(data)[PAGE_HEADER_SIZE:]
        registered = _PAGE_TYPES.get(data[0])
        if verify:
            computed = zlib.crc32(
                payload,
                _prefix_crc(data[0]) if registered is None else registered[1],
            )
            (stored,) = _CHECKSUM.unpack_from(data, 1)
            if stored != computed:
                raise ChecksumError(
                    "page image failed CRC-32 verification "
                    "(stored 0x%08x, computed 0x%08x)" % (stored, computed)
                )
        if registered is None:
            raise PageDecodeError("unknown page type %d" % data[0])
        page_cls = registered[0]
        try:
            return page_cls.decode_payload(payload, page_size)
        except PageDecodeError:
            raise
        except (struct.error, IndexError, ValueError) as exc:
            raise PageDecodeError(
                "%s payload could not be decoded: %s"
                % (page_cls.__name__, exc)
            ) from exc

    def encode_payload(self, out):
        """Write the payload into ``out``, a writable view of the page image
        past its header (writing beyond it raises)."""
        raise NotImplementedError

    @classmethod
    def decode_payload(cls, data, page_size):
        """Build the page from ``data``, a view of the same region."""
        raise NotImplementedError


@register_page_type
class RawPage(Page):
    """An untyped blob page, mainly used by tests of the substrate itself."""

    TYPE_ID = 1
    _HEADER = struct.Struct("<I")

    def __init__(self, payload=b""):
        self.payload = bytes(payload)

    def encode_payload(self, out):
        self._HEADER.pack_into(out, 0, len(self.payload))
        out[self._HEADER.size : self._HEADER.size + len(self.payload)] = \
            self.payload

    @classmethod
    def decode_payload(cls, data, page_size):
        (length,) = cls._HEADER.unpack_from(data, 0)
        if cls._HEADER.size + length > len(data):
            raise PageDecodeError(
                "RawPage claims %d payload bytes but only %d are present"
                % (length, len(data) - cls._HEADER.size)
            )
        return cls(data[cls._HEADER.size : cls._HEADER.size + length])


class ElementEntry:
    """The canonical on-disk record for one region-encoded XML element.

    ``(doc_id, start, end, level)`` matches the element format in the paper's
    Section 2.2.  ``in_stab_list`` is the ``InStabList`` flag of Definition 4
    (meaningful in XR-tree leaf pages); ``ptr`` points at the data entry for
    the element (we store the element's ordinal in its source document).

    Equality and hash cover ``(doc_id, start, end, level)`` only: the flag
    and ``ptr`` are index-internal bookkeeping, so the same element compares
    equal whether it came from a leaf page, a stab list or a plain element
    list.  Entries are shared between pages, cursors and results and must
    never be assigned to; :meth:`with_flag` is the only way to get a
    different flag.  That is a convention, no longer enforced: one entry is
    built per decoded record, and a frozen dataclass's six
    ``object.__setattr__`` calls were most of what a page miss cost.
    """

    __slots__ = ("doc_id", "start", "end", "level", "in_stab_list", "ptr")

    #: ``?`` reads the flag byte back as a real ``bool``.
    STRUCT = struct.Struct("<iiiH?q")
    SIZE = STRUCT.size

    def __init__(self, doc_id, start, end, level, in_stab_list=False, ptr=0):
        self.doc_id = doc_id
        self.start = start
        self.end = end
        self.level = level
        self.in_stab_list = in_stab_list
        self.ptr = ptr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.doc_id, self.start, self.end, self.level) == (
            other.doc_id, other.start, other.end, other.level)

    def __hash__(self):
        return hash((self.doc_id, self.start, self.end, self.level))

    def __repr__(self):
        return (
            "ElementEntry(doc_id=%r, start=%r, end=%r, level=%r, "
            "in_stab_list=%r, ptr=%r)"
            % (self.doc_id, self.start, self.end, self.level,
               self.in_stab_list, self.ptr)
        )

    def pack(self):
        return self.STRUCT.pack(
            self.doc_id, self.start, self.end, self.level,
            self.in_stab_list, self.ptr,
        )

    @classmethod
    def unpack_from(cls, data, offset):
        return cls(*cls.STRUCT.unpack_from(data, offset))

    # -- structural predicates (region encoding, Section 2.1) ----------------

    def contains(self, other):
        """True iff ``self`` is an ancestor of ``other`` (strict nesting)."""
        return (
            self.doc_id == other.doc_id
            and self.start < other.start
            and other.end < self.end
        )

    def is_parent_of(self, other):
        return self.contains(other) and self.level == other.level - 1

    def stabbed_by(self, key):
        """True iff ``start <= key <= end`` (Definition 1)."""
        return self.start <= key <= self.end

    def with_flag(self, in_stab_list):
        """Copy of this entry with the ``InStabList`` flag replaced."""
        return ElementEntry(
            self.doc_id, self.start, self.end, self.level, in_stab_list, self.ptr
        )

    @property
    def region(self):
        return (self.start, self.end)

    def sort_key(self):
        """Document order: by document, then by start position."""
        return (self.doc_id, self.start)
