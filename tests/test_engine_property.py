"""Property-based tests for the path engine on random multi-tag documents.

The oracle is a brute-force evaluator over ``parse_path`` steps and region
codes: every step tests every element of the document against every
element of its context, so it shares no code with the joins, the trees or
the engine's predicate semi-joins.  Each path runs under both strategies
on the parsed document, and once more through ``session().query`` on the
same document stored in a database.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import XmlDatabase
from repro.query import PathQueryEngine
from repro.query.path import Axis, parse_path
from repro.xmldata.model import Document, Element, annotate_regions
from repro.xmldata.parser import serialize_document

TAGS = ("a", "b", "c")


def multi_tag_document(shape, depth_first=False):
    """A random document whose tags cycle with depth (a > b > c > a ...).

    ``shape`` gives each expanded node's child count (mod 4).  Nodes are
    expanded breadth first, or ``depth_first``, which nests deeply enough
    to tell ``parent::`` from ``ancestor::`` and ``/`` from ``//`` (the
    tags repeat every three levels).
    """
    root = Element("a")
    frontier = [root]
    for value in shape:
        node = frontier.pop() if depth_first else frontier.pop(0)
        tag = TAGS[(TAGS.index(node.tag) + 1) % len(TAGS)]
        for _ in range(value % 4):
            frontier.append(node.add_child(Element(tag)))
        if not frontier:
            break
    annotate_regions(root)
    return Document(root)


def _contains(outer, inner):
    return outer.start < inner.start and inner.end < outer.end


def _reached(x, y, axis):
    """Does ``axis`` lead from context element ``x`` to ``y``?"""
    if axis is Axis.DESCENDANT:
        return _contains(x, y)
    if axis is Axis.CHILD:
        return _contains(x, y) and y.level == x.level + 1
    if axis is Axis.ANCESTOR:
        return _contains(y, x)
    return _contains(y, x) and y.level == x.level - 1  # PARENT


def brute_force(elements, steps, context=None):
    """Elements bound to the last of ``steps``, in document order.

    With no ``context`` the first step is absolute: ``//t`` binds every
    ``t`` and ``/t`` only a root-level one.  A predicate is the same walk
    from one context element, and holds when it binds anything.
    """
    for step in steps:
        found = []
        for y in elements:
            if step.tag != "*" and y.tag != step.tag:
                continue
            if context is None:
                if step.axis is Axis.CHILD and y.level != 0:
                    continue
            elif not any(_reached(x, y, step.axis) for x in context):
                continue
            if all(brute_force(elements, predicate.steps, [y])
                   for predicate in step.predicates):
                found.append(y)
        context = found
    return context


def regions(matches, base):
    return [(e.start - base, e.end - base, e.level) for e in matches]


shapes = st.lists(st.integers(min_value=0, max_value=3),
                  min_size=2, max_size=50)

TWIGS = ("//a//b", "//a/b", "//a[b]//b", "//a[b/c]", "//b[c]",
         "//a//b//c", "//a//b/c", "//a[b][b/c]")
# An ``a`` never has a ``c`` child, nor a ``c`` an ``a`` parent, so the
# paths that ask for one must come back empty; ``//`` or ``ancestor::``
# in their place would not.
LINEAR = ("//b//c", "/a/b", "/a//a//c", "//a/*", "//*//b", "//a/c")
NESTED = ("//a[b[c]]/b", "//a[b[c//b]]//c", "//b[*/a]", "//a[c]",
          "//b[a]/c")
REVERSE = ("//c/parent::b", "//c/ancestor::a", "//b[c]/ancestor::a/b",
           "//c/parent::b/parent::a//c", "//a//c/ancestor::b[c]",
           "//c/parent::a", "//b/ancestor::c", "//c/parent::*",
           "//b/ancestor::*/b", "//*/parent::*")
# Same-tag steps join a tag's set with itself or with a subset of it, so
# the two join inputs overlap.
SAME_TAG = ("//a//a", "//a//a/b", "//b[c]//b")
PATHS = TWIGS + LINEAR + NESTED + REVERSE + SAME_TAG


@given(shapes, st.booleans())
@settings(max_examples=60, deadline=None)
def test_engine_matches_brute_force(shape, depth_first):
    document = multi_tag_document(shape, depth_first)
    elements = list(document)
    base = elements[0].start
    engines = [PathQueryEngine(document, strategy=strategy)
               for strategy in ("xr-stack", "stack-tree")]
    db = XmlDatabase.create(page_size=512, buffer_pages=32)
    db.add_document(serialize_document(document))
    with db.session() as session:
        stored_base = session.query("/a").matches[0].start
        for path in PATHS:
            expected = regions(
                brute_force(elements, parse_path(path).steps), base)
            for engine in engines:
                got = regions(engine.evaluate(path).matches, base)
                assert got == expected, (path, engine.strategy)
            stored = session.query(path).matches
            assert regions(stored, stored_base) == expected, path
