"""Ordered-tree document model with region encoding.

XML documents are ordered trees (Section 1).  Each element carries a region
code ``(start, end)`` assigned by a depth-first traversal (Section 2.1): a
global counter advances on every element entry and exit (and once for each
text payload), so for any two distinct elements the regions are either
disjoint or strictly nested — the *strictly nested* property every structure
in this library relies on.
"""

from repro.storage.pages import ElementEntry


class XmlModelError(Exception):
    """Violation of the document model (bad nesting, bad regions, ...)."""


class Element:
    """One element node of an ordered XML tree."""

    __slots__ = ("tag", "start", "end", "level", "children", "parent",
                 "text", "attributes")

    def __init__(self, tag, start=0, end=0, level=0, text="",
                 attributes=None):
        self.tag = tag
        self.start = start
        self.end = end
        self.level = level
        self.children = []
        self.parent = None
        self.text = text
        self.attributes = dict(attributes) if attributes else {}

    def add_child(self, child):
        child.parent = self
        self.children.append(child)
        return child

    def __repr__(self):
        return "Element(%s, %d, %d, level=%d)" % (
            self.tag, self.start, self.end, self.level,
        )

    # -- traversal ----------------------------------------------------------------

    def iter_subtree(self):
        """Yield this element and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def depth_below(self):
        """Height of the subtree rooted here (a leaf has depth 0)."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            stack.extend((child, depth + 1) for child in node.children)
        return best


class Document:
    """A region-encoded XML document."""

    def __init__(self, root, doc_id=1):
        self.root = root
        self.doc_id = doc_id

    def __iter__(self):
        return self.root.iter_subtree()

    def element_count(self):
        return sum(1 for _ in self)

    def elements_by_tag(self, tag):
        """All elements with ``tag``, in document order."""
        return [node for node in self if node.tag == tag]

    def tags(self):
        """Set of distinct tags in the document."""
        return {node.tag for node in self}

    def node_at(self, ordinal):
        """The element at a document-order ordinal (entries' ``ptr`` field).

        Lets consumers holding an :class:`ElementEntry` get back to the
        full node — attributes, text, children — for value checks.
        """
        cache = getattr(self, "_ordinal_cache", None)
        if cache is None:
            cache = list(self)
            self._ordinal_cache = cache
        return cache[ordinal]

    def entries_for_tag(self, tag):
        """Start-ordered :class:`ElementEntry` records for one element set.

        This is the "build indexes on sets of elements defined by certain
        predicates" step of Section 3.2: the element set named by ``tag``
        extracted into the join input format of Section 2.2.  ``ptr`` holds
        the element's ordinal within the document (its data-entry locator).
        """
        entries = []
        for ordinal, node in enumerate(self):
            if node.tag == tag:
                entries.append(
                    ElementEntry(self.doc_id, node.start, node.end, node.level,
                                 False, ordinal)
                )
        return entries

    def max_nesting(self, tag=None):
        """Maximum number of same-tag nestings (``h_d`` in Section 3.3).

        Counts, over all root-to-leaf paths, the largest number of elements
        carrying ``tag`` on one path.  With ``tag=None`` every element counts,
        which makes this the tree height measured in nodes.
        """
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if tag is None or node.tag == tag:
                depth += 1
            if depth > best:
                best = depth
            for child in node.children:
                stack.append((child, depth))
        return best

    def validate(self):
        """Check region-encoding invariants; raises :class:`XmlModelError`.

        Verified properties (Section 2.1):

        * each element's ``start < end``;
        * children are strictly nested inside their parent, in document
          order, with pairwise-disjoint regions;
        * ``level`` increases by exactly one from parent to child.
        """
        stack = [self.root]
        if self.root.level != 0:
            raise XmlModelError("root level must be 0")
        while stack:
            node = stack.pop()
            if not node.start < node.end:
                raise XmlModelError("bad region on %r" % node)
            previous_end = node.start
            for child in node.children:
                if child.level != node.level + 1:
                    raise XmlModelError(
                        "level of %r is not parent level + 1" % child
                    )
                if not (previous_end < child.start and child.end < node.end):
                    raise XmlModelError(
                        "child %r not nested in order inside %r" % (child, node)
                    )
                previous_end = child.end
                stack.append(child)
        return True


def annotate_regions(root):
    """Assign region codes and levels to the tree rooted at ``root``.

    The counter starts at 1 and advances on every element entry and exit,
    and once for each non-empty text payload, creating the gaps visible in
    the paper's Figure 1 (e.g. ``name`` spanning (5, 6) inside ``emp``
    (2, 15)).

    Returns the next unused number.
    """
    counter = 1

    # Iterative DFS carrying explicit enter/exit events to avoid recursion
    # limits on deeply nested generated documents.
    stack = [("enter", root, 0)]
    while stack:
        action, node, level = stack.pop()
        if action == "enter":
            node.level = level
            node.start = counter
            counter += 1
            if node.text:
                counter += 1
            stack.append(("exit", node, level))
            for child in reversed(node.children):
                stack.append(("enter", child, level + 1))
        else:
            node.end = counter
            counter += 1
    return counter
