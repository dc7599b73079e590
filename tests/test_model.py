"""Tests for the document model and region annotation (repro.xmldata.model)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmldata.dtd import DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.model import Document, Element, XmlModelError, annotate_regions


def small_tree():
    """dept > (emp > name, emp > emp), office — Figure 1 in miniature."""
    root = Element("dept")
    emp1 = root.add_child(Element("emp"))
    emp1.add_child(Element("name", text="a"))
    emp2 = root.add_child(Element("emp"))
    emp2.add_child(Element("emp"))
    root.add_child(Element("office"))
    annotate_regions(root)
    return Document(root)


def entry_of(document, node):
    """``node``'s entry, as ``entries_for_tag`` extracts it."""
    return next(entry for entry in document.entries_for_tag(node.tag)
                if entry.start == node.start)


def random_tree(shape, max_children=3):
    """Deterministic tree from a sequence of child-count choices."""
    root = Element("r")
    frontier = [root]
    for value in shape:
        node = frontier.pop(0)
        for _ in range(value % (max_children + 1)):
            frontier.append(node.add_child(Element("c")))
        if not frontier:
            break
    annotate_regions(root)
    return Document(root)


class TestAnnotation:
    def test_regions_strictly_nest(self):
        doc = small_tree()
        assert doc.validate()

    def test_root_spans_document(self):
        doc = small_tree()
        for node in doc:
            assert doc.root.start <= node.start and node.end <= doc.root.end

    def test_levels_increase_by_one(self):
        doc = small_tree()
        for node in doc:
            for child in node.children:
                assert child.level == node.level + 1

    def test_document_order_starts_increase(self):
        doc = small_tree()
        starts = [node.start for node in doc]
        assert starts == sorted(starts)

    def test_text_reserves_a_number(self):
        with_text = Element("a")
        with_text.add_child(Element("b", text="hello"))
        annotate_regions(with_text)
        without = Element("a")
        without.add_child(Element("b"))
        annotate_regions(without)
        assert with_text.end == without.end + 1
        assert with_text.children[0].end == without.children[0].end + 1

    def test_annotation_returns_next_counter(self):
        root = Element("a")
        root.add_child(Element("b"))
        next_number = annotate_regions(root)
        assert next_number == root.end + 1

    def test_deeply_nested_does_not_recurse(self):
        # 5000 levels would blow the default recursion limit if the
        # annotator recursed.
        root = Element("n0")
        node = root
        for i in range(5000):
            node = node.add_child(Element("n%d" % (i + 1)))
        annotate_regions(root)
        assert root.end == 2 * 5001


class TestElementPredicates:
    """The region predicates of Section 2.1/2.2, read through the entries
    ``Document.entries_for_tag`` extracts."""

    def test_is_ancestor_of(self):
        doc = small_tree()
        emp1 = doc.root.children[0]
        root, emp, name = (entry_of(doc, node)
                           for node in (doc.root, emp1, emp1.children[0]))
        assert root.contains(name)
        assert emp.contains(name)
        assert not name.contains(emp)

    def test_is_parent_of(self):
        doc = small_tree()
        emp2 = doc.root.children[1]
        root, outer, inner = (entry_of(doc, node)
                              for node in (doc.root, emp2, emp2.children[0]))
        assert outer.is_parent_of(inner)
        assert root.contains(inner)
        assert not root.is_parent_of(inner)  # two levels apart

    def test_parent_requires_adjacent_levels(self):
        document = random_tree([1, 1, 0])
        root, child, grandchild = (entry_of(document, node)
                                   for node in document)
        assert root.is_parent_of(child)
        assert child.is_parent_of(grandchild)
        assert root.contains(grandchild)
        assert not root.is_parent_of(grandchild)

    def test_iter_subtree_document_order(self):
        doc = small_tree()
        tags = [node.tag for node in doc.root.iter_subtree()]
        assert tags == ["dept", "emp", "name", "emp", "emp", "office"]

    def test_depth_below(self):
        doc = small_tree()
        assert doc.root.depth_below() == 2
        assert doc.root.children[2].depth_below() == 0


class TestRegionAgreement:
    """Region codes answer the ancestor and parent questions exactly as the
    tree's parent pointers do (Section 2.1)."""

    @staticmethod
    def assert_agreement(document, nodes):
        entries = [entry_of(document, node) for node in nodes]
        for v, v_entry in zip(nodes, entries):
            ancestors = set()
            walker = v.parent
            while walker is not None:
                ancestors.add(id(walker))
                walker = walker.parent
            for u, u_entry in zip(nodes, entries):
                assert u_entry.contains(v_entry) == (id(u) in ancestors)
                assert u_entry.is_parent_of(v_entry) == (v.parent is u)

    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_regions_agree_with_parent_pointers(self, shape):
        document = random_tree(shape)
        self.assert_agreement(document, list(document))

    def test_generated_document_agrees(self):
        generator = XmlGenerator(
            DEPARTMENT_DTD, GeneratorConfig(max_depth=10), seed=5
        )
        document = generator.generate(300)
        self.assert_agreement(document, list(document)[:80])


class TestDocumentQueries:
    def test_element_count(self):
        assert small_tree().element_count() == 6

    def test_elements_by_tag(self):
        doc = small_tree()
        assert len(doc.elements_by_tag("emp")) == 3
        assert len(doc.elements_by_tag("missing")) == 0

    def test_tags(self):
        assert small_tree().tags() == {"dept", "emp", "name", "office"}

    def test_entries_for_tag_sorted_with_levels(self):
        doc = small_tree()
        entries = doc.entries_for_tag("emp")
        assert [e.start for e in entries] == sorted(e.start for e in entries)
        assert {e.level for e in entries} == {1, 2}
        assert all(e.doc_id == doc.doc_id for e in entries)

    def test_entries_ptr_is_document_ordinal(self):
        doc = small_tree()
        ordinals = {node.start: i for i, node in enumerate(doc)}
        for entry in doc.entries_for_tag("emp"):
            assert entry.ptr == ordinals[entry.start]

    def test_max_nesting_by_tag(self):
        doc = small_tree()
        assert doc.max_nesting("emp") == 2
        assert doc.max_nesting("name") == 1
        assert doc.max_nesting() == 3  # dept > emp > emp


class TestValidation:
    def test_bad_level_detected(self):
        doc = small_tree()
        doc.root.children[0].level = 5
        with pytest.raises(XmlModelError):
            doc.validate()

    def test_degenerate_region_detected(self):
        doc = small_tree()
        doc.root.children[0].end = doc.root.children[0].start
        with pytest.raises(XmlModelError):
            doc.validate()

    def test_overlapping_siblings_detected(self):
        doc = small_tree()
        doc.root.children[1].start = doc.root.children[0].end - 1
        with pytest.raises(XmlModelError):
            doc.validate()

    def test_child_escaping_parent_detected(self):
        doc = small_tree()
        doc.root.children[0].children[0].end = doc.root.end + 5
        with pytest.raises(XmlModelError):
            doc.validate()

    def test_nonzero_root_level_detected(self):
        doc = small_tree()
        doc.root.level = 1
        with pytest.raises(XmlModelError):
            doc.validate()
