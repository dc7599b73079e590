"""A minimal from-scratch XML parser producing region-encoded documents.

Supports the subset of XML the experiments and examples need: elements with
attributes, text content, comments, processing instructions, a document type
declaration (skipped), CDATA sections and the five predefined entities.

There is one tokenizer and one numbering loop.  :class:`_Tokenizer` matches
the three regular constructs — a text run, an end tag, a start or empty tag —
with one compiled pattern; comments, CDATA, processing instructions, the
DOCTYPE and malformed markup take the slower branches.
:func:`parse_document` assigns region codes during the single left-to-right
pass, exactly as the paper describes region generation: "a depth-first
traversal of the tree and sequentially assigning a number at each visit".
It checks well-formedness and hands every element to a *consumer*.  The
default consumer builds a :class:`Document`;
:meth:`~repro.core.database.XmlDatabase.add_document` passes one that
builds the index's per-tag runs, so no element tree is built to store a
document.
"""

import re

from repro.xmldata.model import Document, Element


class XmlParseError(Exception):
    """Raised on malformed input, with the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


#: A text run, an end tag, or a start/empty tag (name, then the rest).
_TOKEN_RE = re.compile(r"([^<]+)|</([^>]*)>|<([A-Za-z_][\w.\-:]*)([^>]*)>")
#: A numeric character reference's name; leading zeros aside, no more
#: digits than the largest code point (U+10FFFF) has.
_CHAR_REF_RE = re.compile(r"#(?:[xX]0*([0-9A-Fa-f]{1,6})|0*([0-9]{1,7}))")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


def _decode_text(raw, offset):
    """Resolve predefined and numeric character references.

    ``offset`` is where ``raw`` starts in the source; errors report the
    offset of the offending ``&``.
    """
    if "&" not in raw:
        return raw
    out = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        semi = raw.find(";", index)
        if semi == -1:
            raise XmlParseError("unterminated entity reference", offset + index)
        name = raw[index + 1 : semi]
        if name.startswith("#"):
            reference = _CHAR_REF_RE.fullmatch(name)
            if reference is None:
                code = -1
            elif reference.group(1):
                code = int(reference.group(1), 16)
            else:
                code = int(reference.group(2))
            if not 0 <= code <= 0x10FFFF:
                raise XmlParseError("invalid character reference %r" % name,
                                    offset + index)
            out.append(chr(code))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XmlParseError("unknown entity %r" % name, offset + index)
        index = semi + 1
    return "".join(out)


class _Tokenizer:
    """Splits XML source into (kind, payload, offset) events.

    Kinds are ``"start"`` and ``"empty"`` (payload ``(name, attributes)``),
    ``"end"`` (payload the name) and ``"text"`` (payload a non-blank text
    run, its references decoded, or a CDATA section's content).
    """

    def __init__(self, source):
        self.source = source

    def events(self):
        src = self.source
        length = len(src)
        token = _TOKEN_RE.match
        pos = 0
        while pos < length:
            match = token(src, pos)
            if match is not None:
                offset = pos
                pos = match.end()
                text, end_name, name, rest = match.groups()
                if text is not None:
                    if text.strip():
                        yield ("text", _decode_text(text, offset), offset)
                elif end_name is not None:
                    yield ("end", end_name.strip(), offset)
                else:
                    kind = "start"
                    if rest.endswith("/"):
                        kind = "empty"
                        rest = rest[:-1]
                    attributes = (_parse_attributes(rest, match.start(4))
                                  if rest else {})
                    yield (kind, (name, attributes), offset)
                continue
            # Only markup the pattern does not match gets here.
            if src.startswith("<!--", pos):
                end = src.find("-->", pos + 4)
                if end == -1:
                    raise XmlParseError("unterminated comment", pos)
                pos = end + 3
                continue
            if src.startswith("<![CDATA[", pos):
                end = src.find("]]>", pos + 9)
                if end == -1:
                    raise XmlParseError("unterminated CDATA section", pos)
                yield ("text", src[pos + 9 : end], pos)
                pos = end + 3
                continue
            if src.startswith("<?", pos):
                end = src.find("?>", pos + 2)
                if end == -1:
                    raise XmlParseError("unterminated processing instruction",
                                        pos)
                pos = end + 2
                continue
            if src.startswith("<!", pos):
                # DOCTYPE (possibly with an internal subset in brackets).
                depth = 0
                index = pos
                while index < length:
                    if src[index] == "[":
                        depth += 1
                    elif src[index] == "]":
                        depth -= 1
                    elif src[index] == ">" and depth == 0:
                        break
                    index += 1
                if index >= length:
                    raise XmlParseError("unterminated declaration", pos)
                pos = index + 1
                continue
            # A tag the pattern rejects has no closing ">" or a bad name.
            if src.startswith("</", pos):
                raise XmlParseError("unterminated end tag", pos)
            if src.find(">", pos) == -1:
                raise XmlParseError("unterminated start tag", pos)
            raise XmlParseError("invalid tag name", pos)


_ATTR_RE = re.compile(r"\s*([\w.\-:]+)\s*=\s*(\"([^\"]*)\"|'([^']*)')")


def _parse_attributes(raw, offset):
    """The attributes in ``raw``, the text of a tag after its name, which
    starts at ``offset`` in the source; errors report absolute offsets."""
    attributes = {}
    pos = 0
    while pos < len(raw):
        if raw[pos].isspace():
            pos += 1
            continue
        match = _ATTR_RE.match(raw, pos)
        if not match:
            raise XmlParseError("malformed attribute near %r" % raw[pos : pos + 20],
                                offset + pos)
        group = 3 if match.group(3) is not None else 4
        attributes[match.group(1)] = _decode_text(match.group(group),
                                                  offset + match.start(group))
        pos = match.end()
    return attributes


class _TreeBuilder:
    """The default consumer: builds the element tree and its
    :class:`Document`."""

    __slots__ = ("doc_id", "root", "open_nodes")

    def __init__(self, doc_id):
        self.doc_id = doc_id
        self.root = None
        self.open_nodes = []

    def open(self, tag, attributes, start, level):
        node = Element(tag, start, 0, level, attributes=attributes)
        if self.open_nodes:
            self.open_nodes[-1].add_child(node)
        else:
            self.root = node
        self.open_nodes.append(node)

    def close(self, end):
        self.open_nodes.pop().end = end

    def text(self, payload):
        self.open_nodes[-1].text += payload

    def result(self):
        return Document(self.root, doc_id=self.doc_id)


def parse_document(source, doc_id=1, consumer=None):
    """Parse XML text into a region-encoded :class:`Document`.

    Region numbers are assigned in a single pass: the counter advances on
    every start tag, every end tag, and once per non-empty text run or
    CDATA section — producing regions identical to the paper's Figure 1
    style of numbering.  An empty tag ``<a/>`` is a start tag and an end
    tag.

    Every element goes to ``consumer``, in document order: ``open(tag,
    attributes, start, level)`` when it starts, ``text(payload)`` for each
    text run inside it, ``close(end)`` when it ends (for the innermost open
    element).  ``consumer.result()`` is returned.  The default consumer
    builds the :class:`Document` (with id ``doc_id``).  A malformed document
    raises :class:`XmlParseError`; the consumer may have seen part of it.
    """
    if consumer is None:
        consumer = _TreeBuilder(doc_id)
    open_element, close_element, add_text = (consumer.open, consumer.close,
                                             consumer.text)
    counter = 1
    open_tags = []
    rooted = False
    for kind, payload, offset in _Tokenizer(source).events():
        if kind == "text":
            if not open_tags:
                raise XmlParseError("text outside the root element", offset)
            add_text(payload)
            counter += 1
        elif kind == "end":
            if not open_tags:
                raise XmlParseError("end tag %r with no open element" % payload,
                                    offset)
            tag = open_tags.pop()
            if tag != payload:
                raise XmlParseError(
                    "mismatched end tag %r for %r" % (payload, tag), offset
                )
            close_element(counter)
            counter += 1
        else:
            tag, attributes = payload
            if not open_tags:
                if rooted:
                    raise XmlParseError("multiple root elements", offset)
                rooted = True
            open_element(tag, attributes, counter, len(open_tags))
            counter += 1
            if kind == "empty":
                close_element(counter)
                counter += 1
            else:
                open_tags.append(tag)
    if open_tags:
        raise XmlParseError("unclosed element %r" % open_tags[-1], len(source))
    if not rooted:
        raise XmlParseError("no root element", len(source))
    return consumer.result()


def serialize_document(document, indent=False):
    """Render a :class:`Document` back to XML text (used by examples/tests)."""
    out = []

    def _emit(node, depth):
        pad = "  " * depth if indent else ""
        newline = "\n" if indent else ""
        text = _escape(node.text)
        attrs = "".join(
            ' %s="%s"' % (name, _escape_attribute(value))
            for name, value in node.attributes.items()
        )
        if not node.children and not text:
            out.append("%s<%s%s/>%s" % (pad, node.tag, attrs, newline))
            return
        out.append("%s<%s%s>" % (pad, node.tag, attrs))
        if text:
            out.append(text)
        if node.children:
            out.append(newline)
            for child in node.children:
                _emit(child, depth + 1)
            out.append(pad)
        out.append("</%s>%s" % (node.tag, newline))

    stack_nodes = [document.root]
    max_depth = 0
    while stack_nodes:
        node = stack_nodes.pop()
        stack_nodes.extend(node.children)
        if node.level > max_depth:
            max_depth = node.level
    import sys

    if max_depth + 100 >= sys.getrecursionlimit():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max_depth * 2 + 1000)
        try:
            _emit(document.root, 0)
        finally:
            sys.setrecursionlimit(old)
    else:
        _emit(document.root, 0)
    return "".join(out)


def _escape(text):
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _escape_attribute(value):
    return _escape(value).replace('"', "&quot;")
