"""Tests for the from-scratch XML parser (repro.xmldata.parser)."""

import pytest

from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.dtd import DEPARTMENT_DTD
from repro.xmldata.parser import XmlParseError, parse_document, serialize_document


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root.tag == "a"
        assert (doc.root.start, doc.root.end) == (1, 2)

    def test_nested_elements_region_numbering(self):
        doc = parse_document("<a><b/><c><d/></c></a>")
        tags = {n.tag: (n.start, n.end) for n in doc}
        assert tags["a"] == (1, 8)
        assert tags["b"] == (2, 3)
        assert tags["c"] == (4, 7)
        assert tags["d"] == (5, 6)

    def test_levels(self):
        doc = parse_document("<a><b><c/></b></a>")
        levels = {n.tag: n.level for n in doc}
        assert levels == {"a": 0, "b": 1, "c": 2}

    def test_text_content_collected(self):
        doc = parse_document("<a>hello <b>world</b> again</a>")
        assert "hello" in doc.root.text
        assert "again" in doc.root.text
        assert doc.root.children[0].text == "world"

    def test_text_advances_counter(self):
        with_text = parse_document("<a>x<b/></a>")
        without = parse_document("<a><b/></a>")
        assert with_text.root.children[0].start == \
            without.root.children[0].start + 1

    def test_attributes_parsed(self):
        doc = parse_document('<a id="1" name=\'x y\'><b k="&lt;"/></a>')
        assert doc.root.tag == "a"  # attributes accepted, structure intact
        assert doc.validate()

    def test_whitespace_between_elements_ignored(self):
        doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>")
        assert [c.tag for c in doc.root.children] == ["b", "c"]

    def test_doc_id(self):
        assert parse_document("<a/>", doc_id=4).doc_id == 4


class TestMarkupForms:
    def test_comments_skipped(self):
        doc = parse_document("<a><!-- note --><b/></a>")
        assert [c.tag for c in doc.root.children] == ["b"]

    def test_processing_instruction_skipped(self):
        doc = parse_document("<?xml version='1.0'?><a/>")
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse_document(
            "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>"
        )
        assert doc.root.tag == "a"

    def test_cdata_becomes_text(self):
        doc = parse_document("<a><![CDATA[<not & markup>]]></a>")
        assert doc.root.text == "<not & markup>"

    def test_entities_decoded(self):
        doc = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text == "<>&'\""

    def test_numeric_character_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root.text == "AB"


class TestErrors:
    @pytest.mark.parametrize("source", [
        "",
        "<a>",
        "<a></b>",
        "<a/><b/>",
        "text only",
        "<a><b></a></b>",
        "<a>&unknown;</a>",
        "<a><!-- unterminated </a>",
        "<1bad/>",
    ])
    def test_malformed_inputs_raise(self, source):
        with pytest.raises(XmlParseError):
            parse_document(source)

    def test_error_carries_offset(self):
        with pytest.raises(XmlParseError) as err:
            parse_document("<a></b>")
        assert err.value.offset >= 0


class TestSerializeRoundtrip:
    def test_simple_roundtrip(self):
        source = "<a><b>text</b><c/></a>"
        doc = parse_document(source)
        again = parse_document(serialize_document(doc))
        assert [(n.tag, n.start, n.end) for n in doc] == \
            [(n.tag, n.start, n.end) for n in again]

    def test_escaping_roundtrip(self):
        doc = parse_document("<a>a &lt; b &amp; c</a>")
        again = parse_document(serialize_document(doc))
        assert again.root.text == doc.root.text

    def test_generated_document_roundtrip(self):
        generator = XmlGenerator(
            DEPARTMENT_DTD, GeneratorConfig(max_depth=12), seed=9
        )
        doc = generator.generate(400)
        again = parse_document(serialize_document(doc))
        assert [(n.tag, n.level) for n in doc] == \
            [(n.tag, n.level) for n in again]
        # Region codes agree because both assign numbers in document order
        # with one number per text payload.
        assert [(n.start, n.end) for n in doc] == \
            [(n.start, n.end) for n in again]

    def test_roundtrip_validates(self):
        doc = parse_document("<x><y>t</y><y/><z><y/></z></x>")
        assert doc.validate()
        assert parse_document(serialize_document(doc)).validate()

    def test_indented_output_roundtrips_structure(self):
        doc = parse_document("<x><y><z/></y><y/></x>")
        pretty = serialize_document(doc, indent=True)
        assert "\n" in pretty
        again = parse_document(pretty)
        assert [(n.tag, n.level) for n in doc] == \
            [(n.tag, n.level) for n in again]

    def test_doctype_with_nested_brackets(self):
        source = ("<!DOCTYPE a [<!ELEMENT a (b)*>"
                  "<!ENTITY x \"[bracketed]\">]><a><b/></a>")
        doc = parse_document(source)
        assert [n.tag for n in doc] == ["a", "b"]

    def test_deeply_nested_serialization(self):
        # Serialization must survive documents deeper than the recursion
        # limit headroom (it raises the limit temporarily).
        from repro.xmldata.model import Document, Element, annotate_regions

        root = Element("n")
        node = root
        for _ in range(2000):
            node = node.add_child(Element("n"))
        annotate_regions(root)
        text = serialize_document(Document(root))
        assert text.count("<n>") + text.count("<n/>") == 2001
