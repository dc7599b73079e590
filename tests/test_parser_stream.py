"""A document is indexed as it is parsed: differential tests.

``XmlDatabase.add_document(text)`` builds its per-tag runs straight from
:func:`repro.xmldata.parser.parse_document`'s events, with no element tree.
On generated documents with comments, CDATA, processing instructions, a
DOCTYPE, entities, attributes and mixed text spliced in:

* (a) the runs must equal a walk of ``parse_document(text)``'s tree —
  per tag ``(start, end, level, ptr)``, tag order, span and depth — and
  ``add_document(text)`` must store byte-identical pages to
  ``add_document(parse_document(text))``;
* (b) the tokenizer's events must equal the character-walking reference
  tokenizer's (``tests/reference_tokenizer.py``) on valid input and on a
  mutation sweep of malformed input, with the same message and offset;
  the two error classes the reference gets wrong are a golden table;
* (c) a document malformed at its last byte changes nothing.

Seeded: set ``CHAOS_SEED`` to reproduce a run.
"""

import os
import random

import pytest

from tests.reference_tokenizer import ReferenceTokenizer
from repro.core.database import XmlDatabase, _RunBuilder
from repro.xmldata.dtd import AUCTION_DTD, DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.parser import XmlParseError, _Tokenizer, parse_document

SEED = int(os.environ.get("CHAOS_SEED", "20030307"))
TRIALS = 6

ATTRIBUTE_NAMES = ("id", "k", "x-y", "a.b", "ns:v", "_u")
TEXTS = ("t", "a &lt; b", "x &amp;&amp; y", "&#65;&#x3b1;&#X42;", "q&quot;",
         "it&apos;s", "  spaced  ", "été &gt; 1")


def _attribute(rng):
    quote = rng.choice("\"'")
    return "%s%s%s=%s%s%s%s" % (
        rng.choice((" ", "\n ", "  ")), rng.choice(ATTRIBUTE_NAMES),
        rng.choice(("", " ")), rng.choice(("", " ")),
        quote, rng.choice(TEXTS + ("", "v")), quote)


def _aside(rng):
    """Markup between children that is not an element."""
    return rng.choice((
        "<!-- note -->", "<!---->", "<?pi data?>", "<![CDATA[<x> & ]]>",
        "<![CDATA[]]>", " ", "\n  ", rng.choice(TEXTS)))


def _decorate(document, rng):
    """``document`` as XML text, with markup a plain serializer never
    writes spliced in."""
    out = []
    if rng.random() < 0.5:
        out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    if rng.random() < 0.5:
        out.append("<!-- generated -->")
    if rng.random() < 0.5:
        out.append('<!DOCTYPE r [<!ELEMENT r ANY><!ENTITY x "[y]">]>\n')

    def emit(node):
        attributes = "".join(_attribute(rng)
                             for _ in range(rng.choice((0, 0, 1, 2))))
        content = [node.text] if node.text else []
        for child in node.children:
            if rng.random() < 0.3:
                content.append(_aside(rng))
            content.append(child)
        if rng.random() < 0.2:
            content.append(_aside(rng))
        if not content and rng.random() < 0.7:
            out.append("<%s%s%s/>" % (node.tag, attributes,
                                      rng.choice(("", " "))))
            return
        out.append("<%s%s%s>" % (node.tag, attributes, rng.choice(("", " "))))
        for item in content:
            if isinstance(item, str):
                out.append(item)
            else:
                emit(item)
        out.append("</%s%s>" % (node.tag, rng.choice(("", " "))))

    emit(document.root)
    if rng.random() < 0.5:
        out.append(rng.choice(("\n", "<!-- end -->", "<?done?>\n")))
    return "".join(out)


def _documents(trial, elements=150):
    rng = random.Random(SEED * 1000 + trial)
    dtd = (DEPARTMENT_DTD, AUCTION_DTD)[trial % 2]
    config = GeneratorConfig(max_depth=10,
                             id_attributes=rng.random() < 0.5)
    generator = XmlGenerator(dtd, config, seed=rng.randrange(1 << 30))
    return rng, [_decorate(generator.generate(elements), rng)
                 for _ in range(3)]


def _walk(document, doc_id, offset):
    """The runs, span and depth a walk of the parsed tree gives."""
    runs = {}
    for ordinal, node in enumerate(document):
        runs.setdefault(node.tag, []).append(
            (doc_id, node.start + offset, node.end + offset, node.level,
             False, ordinal))
    return (runs, document.root.end,
            max(node.level for node in document))


def _streamed(text, doc_id, offset):
    builder = parse_document(text, consumer=_RunBuilder(doc_id, offset))
    runs = {tag: [(e.doc_id, e.start, e.end, e.level, e.in_stab_list, e.ptr)
                  for e in run]
            for tag, run in builder.per_tag.items()}
    return runs, builder.span, builder.depth


def _page_images(db):
    disk = db._context.disk
    freed = set(disk._freed)
    return [disk.peek(page_id) for page_id in range(1, disk._next_page_id)
            if page_id not in freed]


@pytest.mark.parametrize("trial", range(TRIALS))
class TestRunsMatchTheTree:
    def test_streamed_runs_equal_a_walk_of_the_tree(self, trial):
        _rng, texts = _documents(trial)
        for index, text in enumerate(texts):
            expected = _walk(parse_document(text), index + 1, 100 * index)
            streamed = _streamed(text, index + 1, 100 * index)
            assert streamed == expected
            # Insert order across tags is first-occurrence order.
            assert list(streamed[0]) == list(expected[0])

    def test_text_and_tree_sources_store_identical_pages(self, trial):
        _rng, texts = _documents(trial)
        from_text = XmlDatabase.create(page_size=512, buffer_pages=16)
        from_tree = XmlDatabase.create(page_size=512, buffer_pages=16)
        for text in texts:
            assert (from_text.add_document(text)
                    == from_tree.add_document(parse_document(text)))
        from_text.flush()
        from_tree.flush()
        assert from_text.documents() == from_tree.documents()
        assert from_text.tags() == from_tree.tags()
        assert _page_images(from_text) == _page_images(from_tree)
        from_text.verify()


def _outcome(tokenizer):
    """Every event the tokenizer yields, then ``("error", message,
    offset)``, ``("value-error",)`` or ``("ok",)``."""
    events = []
    try:
        for event in tokenizer.events():
            events.append(event)
    except XmlParseError as exc:
        return events, ("error", str(exc), exc.offset)
    except (ValueError, OverflowError):
        return events, ("value-error",)
    return events, ("ok",)


def _parse_outcome(text, consumer=None):
    try:
        parse_document(text, consumer=consumer)
    except XmlParseError as exc:
        return str(exc), exc.offset
    return "ok"


def _mutants(text, rng):
    """Malformed variants: truncations, stray ``<``, ``>`` and ``&``, bad
    names, unquoted attributes and dropped quotes."""
    cuts = sorted(rng.sample(range(1, len(text)), min(40, len(text) - 1)))
    for cut in cuts:
        yield text[:cut]
    for stray in "<>&":
        for _ in range(15):
            at = rng.randrange(len(text) + 1)
            yield text[:at] + stray + text[at:]
    tags = [index for index, char in enumerate(text)
            if char == "<" and text[index + 1 : index + 2].isalpha()]
    for at in rng.sample(tags, min(10, len(tags))):
        yield text[: at + 1] + rng.choice("1-.") + text[at + 1 :]
    quotes = [index for index, char in enumerate(text) if char in "\"'"]
    for at in rng.sample(quotes, min(10, len(quotes))):
        yield text[:at] + text[at + 1 :]
    for at in rng.sample(tags, min(10, len(tags))):
        end = text.index(">", at)
        if text[end - 1] == "/":
            end -= 1
        yield text[:end] + rng.choice((" k=v", " k", " =\"v\"", " k=\"v")) \
            + text[end:]


@pytest.mark.parametrize("trial", range(TRIALS))
class TestTokenizerMatchesTheReference:
    def test_valid_documents(self, trial):
        _rng, texts = _documents(trial)
        for text in texts:
            events = list(_Tokenizer(text).events())
            assert events == list(ReferenceTokenizer(text).events())

    def test_mutation_sweep(self, trial):
        rng, texts = _documents(trial, elements=40)
        errors = 0
        for mutant in _mutants(texts[0], rng):
            events, ending = _outcome(_Tokenizer(mutant))
            expected_events, expected = _outcome(
                ReferenceTokenizer(mutant))
            assert events == expected_events, mutant
            if expected == ("value-error",):
                # A malformed character reference: fixed, see
                # TestErrorGoldens.
                assert ending[0] == "error", mutant
                assert "invalid character reference" in ending[1]
            else:
                assert ending == expected, mutant
            # Both consumers see the same well-formedness checks.
            tree = _parse_outcome(mutant)
            assert tree == _parse_outcome(mutant, _RunBuilder(1, 0))
            errors += tree != "ok"
        assert errors > 0


#: (source, message, offset) for the two error classes the parser used to
#: get wrong: malformed numeric character references escaped as a bare
#: ValueError, and attribute errors were reported at the tag's offset plus
#: a position counted from the text after the tag name.
GOLDEN_ERRORS = [
    ("<a>&#xZZ;</a>", "invalid character reference '#xZZ'", 3),
    ("<a>&#;</a>", "invalid character reference '#'", 3),
    ("<a>&#x;</a>", "invalid character reference '#x'", 3),
    ("<a>&#99999999;</a>", "invalid character reference '#99999999'", 3),
    ("<a>&#x110000;</a>", "invalid character reference '#x110000'", 3),
    ("<a>&#-5;</a>", "invalid character reference '#-5'", 3),
    ("<a>ok &#65; then &#1_0;</a>", "invalid character reference '#1_0'",
     17),
    ('<a b="&#xZZ;"/>', "invalid character reference '#xZZ'", 6),
    ("<a><b c='x &#;'/></a>", "invalid character reference '#'", 11),
    ('<r><a b="&zz;"/></r>', "unknown entity 'zz'", 9),
    ('<r><a k="&amp;&bad;"/></r>', "unknown entity 'bad'", 14),
    ("<r><abc x/></r>", "malformed attribute near 'x'", 8),
    ('<r><a k="v" j=w/></r>', "malformed attribute near 'j=w'", 12),
    ('<r>\n<a\n  k="v"\n  j/></r>', "malformed attribute near 'j'", 17),
]


class TestErrorGoldens:
    @pytest.mark.parametrize("source, message, offset", GOLDEN_ERRORS)
    def test_parse_document(self, source, message, offset):
        culprit = ("&" if "attribute" not in message
                   else message.split("'")[1][0])
        assert source[offset] == culprit
        with pytest.raises(XmlParseError) as err:
            parse_document(source)
        assert str(err.value) == "%s (at offset %d)" % (message, offset)
        assert err.value.offset == offset

    @pytest.mark.parametrize("source, message, offset", GOLDEN_ERRORS)
    def test_add_document(self, source, message, offset):
        db = XmlDatabase.create(page_size=512, buffer_pages=16)
        with pytest.raises(XmlParseError) as err:
            db.add_document(source)
        assert err.value.offset == offset
        assert db.documents() == [] and db.tags() == []

    def test_valid_character_references(self):
        text = "<a>&#x0041;&#0066;&#x10FFFF;&#X43;</a>"
        assert parse_document(text).root.text == "AB\U0010ffffC"


@pytest.mark.parametrize("trial", range(TRIALS))
def test_a_document_malformed_at_its_last_byte_changes_nothing(trial):
    _rng, texts = _documents(trial)
    db = XmlDatabase.create(page_size=512, buffer_pages=16)
    db.add_document(texts[0])
    db.flush()
    db.add_document(texts[1])
    before = (db.documents(), db.tags(), db.element_count(),
              db._next_id, [db.element_count(tag) for tag in db.tags()])
    bad = texts[2].rstrip()
    for malformed in (bad[:-1], bad[:-1] + "<", bad[:-1] + "/"):
        with pytest.raises(XmlParseError):
            db.add_document(malformed)
        assert (db.documents(), db.tags(), db.element_count(), db._next_id,
                [db.element_count(tag) for tag in db.tags()]) == before
    assert db.add_document(texts[2]) == before[3]
    db.flush()
    db.verify()
