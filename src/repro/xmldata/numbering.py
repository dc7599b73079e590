"""XML numbering schemes (Section 2.1).

Three schemes determine ancestor/descendant relationships in O(1):

* **region encoding** ``(start, end)`` — the scheme XR-trees index;
  ``u`` is an ancestor of ``v`` iff ``u.start < v.start`` and
  ``v.end < u.end`` (equivalently ``u.start < v.start < u.end`` because
  regions never partially overlap);
* **durable numbering** ``(order, size)`` — ``u`` ancestor of ``v`` iff
  ``u.order < v.order < u.order + u.size``;
* **Dietz numbering** ``(preorder, postorder)`` — ``u`` ancestor of ``v`` iff
  ``u.pre < v.pre`` and ``v.post < u.post``.

The annotators return dictionaries keyed by element identity so they can be
applied to any already-built :class:`~repro.xmldata.model.Document`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class DurableCode:
    order: int
    size: int


@dataclass(frozen=True)
class DietzCode:
    pre: int
    post: int


# -- ancestor predicates -----------------------------------------------------

def is_ancestor_region(ancestor, descendant):
    """Region-code test; both arguments expose ``start`` and ``end``."""
    return ancestor.start < descendant.start and descendant.end < ancestor.end


def is_parent_region(ancestor, descendant):
    """Parent-child test; arguments also expose ``level`` (Section 2.2)."""
    return (
        is_ancestor_region(ancestor, descendant)
        and ancestor.level == descendant.level - 1
    )


def is_ancestor_durable(ancestor, descendant):
    return ancestor.order < descendant.order < ancestor.order + ancestor.size


def is_ancestor_dietz(ancestor, descendant):
    return ancestor.pre < descendant.pre and descendant.post < ancestor.post


# -- annotators -----------------------------------------------------------------

def annotate_durable(document):
    """Assign durable ``(order, size)`` codes to every element.

    ``order`` is the preorder rank; ``size`` is chosen so the open interval
    ``(order, order + size)`` covers exactly the orders of the descendants
    (we use subtree node count, the classic choice without update slack).
    """
    codes = {}
    counter = [0]

    def _sizes(node):
        counter[0] += 1
        order = counter[0]
        subtree = 1
        for child in node.children:
            subtree += _sizes(child)
        codes[id(node)] = DurableCode(order, subtree)
        return subtree

    _walk_protected(document.root, _sizes)
    return codes


def annotate_dietz(document):
    """Assign Dietz ``(preorder, postorder)`` codes to every element."""
    codes = {}
    pre_counter = [0]
    post_counter = [0]
    pre = {}

    def _assign(node):
        pre_counter[0] += 1
        pre[id(node)] = pre_counter[0]
        for child in node.children:
            _assign(child)
        post_counter[0] += 1
        codes[id(node)] = DietzCode(pre[id(node)], post_counter[0])

    _walk_protected(document.root, _assign)
    return codes


def _walk_protected(root, visit):
    """Run a recursive visitor on a tree of any depth.

    Generated documents can nest deeper than CPython's default recursion
    limit, so for a deep tree the limit is raised to fit its height for
    the duration of the visit and restored afterwards.
    """
    import sys

    depth_estimate = _height(root)
    if depth_estimate + 50 < sys.getrecursionlimit():
        visit(root)
        return
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth_estimate * 2 + 1000)
    try:
        visit(root)
    finally:
        sys.setrecursionlimit(old)


def _height(root):
    best = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > best:
            best = depth
        stack.extend((child, depth + 1) for child in node.children)
    return best
