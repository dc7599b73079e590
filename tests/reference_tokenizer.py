"""The character-walking XML tokenizer, kept as an oracle for the parser's.

This is :class:`repro.xmldata.parser._Tokenizer` as it stood before the
parser matched text runs, end tags and start tags with one compiled
pattern: it finds each construct with ``str.find`` and walks attributes
with a second pattern.  ``tests/test_parser_stream.py`` holds the parser's
events, messages and offsets to this one's on valid and malformed input.

One change from that code: attribute errors report the absolute offset of
the offending character (the old code added a position counted from the
text after the tag name to the tag's own offset).  Malformed numeric
character references still escape as the bare ``ValueError`` of ``int()``
or ``chr()``; the parser raises :class:`XmlParseError` for them, and the
test pins those cases with a golden table instead.
"""

import re

from repro.xmldata.parser import XmlParseError

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-:]*")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


def _decode_text(raw, offset):
    """Resolve predefined and numeric character references."""
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
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XmlParseError("unknown entity %r" % name, offset + index)
        index = semi + 1
    return "".join(out)


class ReferenceTokenizer:
    """Splits XML source into (kind, payload, offset) events."""

    def __init__(self, source):
        self.source = source
        self.pos = 0

    def events(self):
        src = self.source
        length = len(src)
        while self.pos < length:
            if src[self.pos] != "<":
                start = self.pos
                end = src.find("<", start)
                if end == -1:
                    end = length
                text = src[start:end]
                self.pos = end
                if text.strip():
                    yield ("text", _decode_text(text, start), start)
                continue
            if src.startswith("<!--", self.pos):
                end = src.find("-->", self.pos + 4)
                if end == -1:
                    raise XmlParseError("unterminated comment", self.pos)
                self.pos = end + 3
                continue
            if src.startswith("<![CDATA[", self.pos):
                end = src.find("]]>", self.pos + 9)
                if end == -1:
                    raise XmlParseError("unterminated CDATA section", self.pos)
                yield ("text", src[self.pos + 9 : end], self.pos)
                self.pos = end + 3
                continue
            if src.startswith("<?", self.pos):
                end = src.find("?>", self.pos + 2)
                if end == -1:
                    raise XmlParseError("unterminated processing instruction",
                                        self.pos)
                self.pos = end + 2
                continue
            if src.startswith("<!", self.pos):
                # DOCTYPE (possibly with an internal subset in brackets).
                depth = 0
                index = self.pos
                while index < length:
                    if src[index] == "[":
                        depth += 1
                    elif src[index] == "]":
                        depth -= 1
                    elif src[index] == ">" and depth == 0:
                        break
                    index += 1
                if index >= length:
                    raise XmlParseError("unterminated declaration", self.pos)
                self.pos = index + 1
                continue
            if src.startswith("</", self.pos):
                end = src.find(">", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated end tag", self.pos)
                name = src[self.pos + 2 : end].strip()
                yield ("end", name, self.pos)
                self.pos = end + 1
                continue
            yield self._start_tag()

    def _start_tag(self):
        src = self.source
        offset = self.pos
        end = src.find(">", offset)
        if end == -1:
            raise XmlParseError("unterminated start tag", offset)
        body = src[offset + 1 : end]
        self_closing = body.endswith("/")
        if self_closing:
            body = body[:-1]
        name_match = _NAME_RE.match(body)
        if not name_match:
            raise XmlParseError("invalid tag name", offset)
        name = name_match.group(0)
        attributes = _parse_attributes(body[name_match.end() :],
                                       offset + 1 + name_match.end())
        self.pos = end + 1
        kind = "empty" if self_closing else "start"
        return (kind, (name, attributes), offset)


_ATTR_RE = re.compile(r"\s*([\w.\-:]+)\s*=\s*(\"([^\"]*)\"|'([^']*)')")


def _parse_attributes(raw, offset):
    # ``offset`` is where ``raw`` starts in the source (the parser's fix).
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
