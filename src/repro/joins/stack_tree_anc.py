"""Stack-Tree-Anc — the ancestor-ordered variant of Stack-Tree.

The paper's no-index baseline ([22], Al-Khalifa/Srivastava et al.) comes in
two flavours: *Desc* emits pairs sorted by descendant (what
:mod:`repro.joins.stack_tree` implements — output order matches the merge)
and *Anc* emits pairs sorted by ancestor, which is the useful order when the
join's output feeds another join as the ancestor side (no re-sort).

Sorting by ancestor is the hard direction: when a descendant matches a
whole stack of nested ancestors, the pair for the *outermost* ancestor may
only be emitted after every pair of the inner ones — so each stack frame
buffers its pairs in two lists (the original *self/inherit* trick):

* ``self_list`` — pairs whose ancestor is this frame's element;
* ``inherit_list`` — already ancestor-ordered pairs inherited from popped
  descendants of this frame.

When a frame pops: if the stack is now empty its ``self_list + inherit``
is final output; otherwise the combined list is appended to the new top's
``inherit_list`` (everything in it sorts after the new top's own pairs).
"""

from repro.joins.base import JoinSink, JoinStats


class _Frame:
    __slots__ = ("element", "self_list", "inherit_list")

    def __init__(self, element):
        self.element = element
        self.self_list = []     # descendants joined with this element
        self.inherit_list = []  # ancestor-ordered pairs from popped frames

    def merged(self):
        pairs = [(self.element, descendant)
                 for descendant in self.self_list]
        pairs.extend(self.inherit_list)
        return pairs


def stack_tree_anc_join(alist, dlist, parent_child=False, collect=True,
                        stats=None):
    """Join two paged element lists, output ordered by ancestor.

    Returns ``(pairs, stats)``; pairs come out sorted by
    ``(ancestor.start, descendant.start)`` without any post-sort.
    """
    stats = stats or JoinStats()
    sink = JoinSink(stats, parent_child=parent_child, collect=collect)
    tick = stats.runtime.tick if stats.runtime is not None else None
    a_items, d_items = iter(alist.first()), iter(dlist.first())
    a, d = next(a_items, None), next(d_items, None)
    stack = []

    def pop_frame():
        frame = stack.pop()
        pairs = frame.merged()
        if stack:
            stack[-1].inherit_list.extend(pairs)
        else:
            for ancestor, descendant in pairs:
                sink.emit(ancestor, descendant)

    scanned = 0
    try:
        while d is not None and (a is not None or stack):
            # Guardrail checkpoint at a pin-free point (see JoinStats).
            if tick is not None:
                tick()
            d_start = d.start
            if a is not None and a.start <= d_start:
                a_start = a.start
                while stack and stack[-1].element.end < a_start:
                    pop_frame()
                scanned += 1
                stack.append(_Frame(a))
                a = next(a_items, None)
            else:
                while stack and stack[-1].element.end < d_start:
                    pop_frame()
                scanned += 1
                for frame in stack:
                    frame.self_list.append(d)
                d = next(d_items, None)
        while stack:
            pop_frame()
    finally:
        stats.elements_scanned += scanned
    return (sink.pairs if collect else None), stats
