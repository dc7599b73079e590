"""Holistic twig matching: PathStack generalized to branching patterns.

Where :mod:`repro.query.pathstack` matches linear paths, this module matches
*twigs* — query trees such as ``//employee[email]/name`` viewed as a pattern
with branches — in the holistic style: one synchronized pass over all
per-tag streams builds linked stacks along every root-to-leaf query path,
emitting path solutions, which a final merge phase combines into full twig
matches (one element bound per query node, consistent across branches).

This is the PathStack-based twig evaluation of Bruno et al. (SIGMOD 2002,
their Section 3) — the paper's TwigStack refinement additionally skips
elements that cannot contribute (optimal for descendant-only edges); the
pass here processes every stream element once, which keeps it simple and
strictly correct for both axes.  Element scans are counted, so the engines
can be compared quantitatively.
"""

from dataclasses import dataclass, field

from repro.joins.base import JoinStats
from repro.query.path import Axis, parse_path


@dataclass
class TwigNode:
    """One node of the query twig.

    ``axis`` is the edge type linking this node to its parent (ignored on
    the root).  ``index`` is the node's preorder number, assigned by
    :func:`twig_from_path`.
    """

    tag: str
    axis: object = Axis.DESCENDANT
    children: list = field(default_factory=list)
    index: int = -1
    parent: object = None

    def add(self, child):
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_leaf(self):
        return not self.children

    def preorder(self):
        out = [self]
        for child in self.children:
            out.extend(child.preorder())
        return out

    def __str__(self):
        text = self.tag
        for child in self.children:
            text += "[%s%s]" % ("" if child.axis is Axis.CHILD else "//",
                                str(child))
        return text


def twig_from_path(path):
    """Build a query twig from a path expression with predicates.

    The main path becomes the trunk; each ``[rel-path]`` predicate becomes a
    branch at its step.  The *last trunk node* is the output node (its
    bindings are the query's matches).
    """
    expression = parse_path(path) if isinstance(path, str) else path
    root = None
    current = None
    for step in expression.steps:
        if step.axis.is_reverse:
            raise ValueError("twig executors handle forward axes only")
        node = TwigNode(step.tag, step.axis)
        if root is None:
            root = node
        else:
            current.add(node)
        current = node
        for predicate in step.predicates:
            _attach_predicate(node, predicate)
    for index, node in enumerate(root.preorder()):
        node.index = index
    return root, current


def _attach_predicate(anchor, predicate):
    from repro.query.path import AttributePredicate

    if isinstance(predicate, AttributePredicate):
        raise ValueError(
            "attribute predicates are value filters, outside the holistic "
            "twig executor's scope; use PathQueryEngine"
        )
    current = anchor
    for step in predicate.steps:
        node = TwigNode(step.tag, step.axis)
        current.add(node)
        current = node
        for nested in step.predicates:
            _attach_predicate(node, nested)


@dataclass
class TwigSolutions:
    """Output of one twig run."""

    twig: str
    matches: list = field(default_factory=list)  # tuples indexed by node
    count: int = 0
    stats: JoinStats = field(default_factory=JoinStats)

    def __len__(self):
        return self.count

    def bindings_of(self, node_index):
        """Distinct elements bound to one query node, in document order."""
        seen = set()
        out = []
        for match in self.matches:
            element = match[node_index]
            if element.start not in seen:
                seen.add(element.start)
                out.append(element)
        out.sort(key=lambda e: e.start)
        return out


def twig_join(entry_source, root, collect=True, stats=None):
    """Match the twig rooted at ``root`` against per-tag element lists.

    ``entry_source(tag)`` must return the start-sorted element list for a
    tag.  Returns a :class:`TwigSolutions` whose matches are tuples indexed
    by query-node preorder index.
    """
    stats = stats or JoinStats()
    nodes = root.preorder()
    streams = {node.index: iter(entry_source(node.tag)) for node in nodes}
    heads = {index: next(stream, None) for index, stream in streams.items()}
    if any(head is None for head in heads.values()):
        return TwigSolutions(str(root), [], 0, stats)
    stacks = {node.index: [] for node in nodes}
    # Path solutions per leaf: lists of dicts {node_index: element}.
    leaf_solutions = {node.index: [] for node in nodes if node.is_leaf}

    by_index = {node.index: node for node in nodes}
    while True:
        # Guardrail checkpoint: streams are in-memory lists, nothing is
        # pinned between iterations.
        stats.checkpoint()
        q = _min_stream(nodes, heads)
        if q is None:
            break
        head = heads[q.index]
        stats.count(1)
        for stack in stacks.values():
            while stack and stack[-1][0].end < head.start:
                stack.pop()
        parent = q.parent
        if parent is None or stacks[parent.index]:
            link = len(stacks[parent.index]) if parent is not None else 0
            stacks[q.index].append((head, link))
            if q.is_leaf:
                _expand_path(q, stacks, head, leaf_solutions[q.index])
                stacks[q.index].pop()
        heads[q.index] = next(streams[q.index], None)

    matches = _merge_leaf_solutions(root, leaf_solutions, collect)
    result = TwigSolutions(str(root))
    result.stats = stats
    result.count = len(matches)
    result.matches = matches if collect else []
    return result


def _min_stream(nodes, heads):
    """The query node whose stream head has the globally smallest start.

    Ties break toward the shallower query node (preorder), so for same-tag
    twigs the ancestor-side copy is stacked before descendants look for it.
    """
    best = None
    best_start = None
    for node in nodes:
        head = heads[node.index]
        if head is not None and (best_start is None
                                 or head.start < best_start):
            best = node
            best_start = head.start
    return best


def _expand_path(leaf, stacks, leaf_element, sink):
    """Enumerate root-to-leaf path solutions ending at ``leaf_element``."""
    query_path = []
    node = leaf
    while node is not None:
        query_path.append(node)
        node = node.parent
    query_path.reverse()  # root .. leaf

    def _recurse(position, max_index, binding):
        if position < 0:
            sink.append(dict(binding))
            return
        node = query_path[position]
        below = binding[query_path[position + 1].index]
        for index in range(max_index - 1, -1, -1):
            element, link = stacks[node.index][index]
            if element.start >= below.start or element.end < below.end:
                continue
            if query_path[position + 1].axis is Axis.CHILD and \
                    element.level != below.level - 1:
                continue
            binding[node.index] = element
            _recurse(position - 1, link if position else 0, binding)
            del binding[node.index]

    if len(query_path) == 1:
        sink.append({leaf.index: leaf_element})
        return
    leaf_frame = stacks[leaf.index][-1]
    _recurse(len(query_path) - 2, leaf_frame[1],
             {leaf.index: leaf_element})


def _merge_leaf_solutions(root, leaf_solutions, collect):
    """Hash-join per-leaf path solutions on their shared query nodes."""
    leaves = [node for node in root.preorder() if node.is_leaf]
    if not leaves:
        return []
    first = leaves[0]
    covered = _path_node_indexes(first)
    current = leaf_solutions[first.index]
    for leaf in leaves[1:]:
        path_indexes = _path_node_indexes(leaf)
        shared = sorted(covered & path_indexes)
        grouped = {}
        for solution in leaf_solutions[leaf.index]:
            key = tuple(solution[i].start for i in shared)
            grouped.setdefault(key, []).append(solution)
        merged = []
        for partial in current:
            key = tuple(partial[i].start for i in shared)
            for solution in grouped.get(key, ()):
                combined = dict(partial)
                combined.update(solution)
                merged.append(combined)
        current = merged
        covered |= path_indexes
    total = len(root.preorder())
    return [tuple(binding[i] for i in range(total)) for binding in current]


def _path_node_indexes(leaf):
    indexes = set()
    node = leaf
    while node is not None:
        indexes.add(node.index)
        node = node.parent
    return indexes


_INF = float("inf")


def twig_stack_join(entry_source, root, collect=True, stats=None):
    """TwigStack proper: the getNext-guided holistic twig join.

    Unlike :func:`twig_join` (which examines every stream element once),
    TwigStack's ``getNext`` advances streams past elements that provably
    cannot participate — an element of query node ``q`` whose region ends
    before the *largest* current head start among ``q``'s children cannot
    contain any current or future element of that child, so it is skipped
    unexamined.  For descendant-only twigs this makes the pass worst-case
    optimal (Bruno et al.); with child edges the skip condition is still
    safe (containment is necessary for parenthood), merely less tight.
    """
    stats = stats or JoinStats()
    nodes = root.preorder()
    streams = {node.index: iter(entry_source(node.tag)) for node in nodes}
    heads = {index: next(stream, None) for index, stream in streams.items()}
    if any(head is None for head in heads.values()):
        return TwigSolutions(str(root), [], 0, stats)
    stacks = {node.index: [] for node in nodes}
    leaf_solutions = {node.index: [] for node in nodes if node.is_leaf}

    def head_start(node):
        head = heads[node.index]
        return _INF if head is None else head.start

    def subtree_live(node):
        """Can this subtree still produce *new* path solutions?  Yes iff
        some leaf stream under it is not exhausted (already-stacked
        ancestor frames serve the rest of the path)."""
        if node.is_leaf:
            return heads[node.index] is not None
        return any(subtree_live(child) for child in node.children)

    def get_next(q):
        """The query node whose head should be processed next (None when
        the subtree is inert), advancing streams past elements that
        provably cannot participate.

        When every live child has returned itself, each live child's own
        stream is live (an exhausted-stream child always hands back a
        deeper node), so the min/max head comparisons below see finite
        starts only.
        """
        if q.is_leaf:
            return q if heads[q.index] is not None else None
        live = [child for child in q.children if subtree_live(child)]
        if not live:
            return None
        for child in live:
            n = get_next(child)
            if n is not None and n is not child:
                return n
        n_min = min(live, key=head_start)
        n_max = max(live, key=head_start)
        # Elements of q that end before the largest live child head cannot
        # contain any current or future element of that child: skip them.
        head = heads[q.index]
        while head is not None and head.end < head_start(n_max):
            stats.count(1)  # examined and skipped
            head = heads[q.index] = next(streams[q.index], None)
        if head_start(q) < head_start(n_min):
            return q
        return n_min

    while True:
        # Guardrail checkpoint (pin-free: twig streams are in-memory).
        stats.checkpoint()
        q = get_next(root)
        if q is None:
            break
        head = heads[q.index]
        if head is None:
            break
        stats.count(1)
        parent = q.parent
        # Clean ONLY q's and its parent's stacks (Bruno et al.).  Unlike
        # the exhaustive twig_join, getNext does not process elements in
        # global start order: a sibling branch may later deliver an element
        # with a *smaller* start, so frames further up the path that ended
        # before this head can still be needed and must not be popped here
        # (the solution expansion filters non-ancestors itself).
        for node in (q, parent):
            if node is None:
                continue
            stack = stacks[node.index]
            while stack and stack[-1][0].end < head.start:
                stack.pop()
        if parent is None or stacks[parent.index]:
            link = len(stacks[parent.index]) if parent is not None else 0
            stacks[q.index].append((head, link))
            if q.is_leaf:
                _expand_path(q, stacks, head, leaf_solutions[q.index])
                stacks[q.index].pop()
        heads[q.index] = next(streams[q.index], None)

    matches = _merge_leaf_solutions(root, leaf_solutions, collect)
    result = TwigSolutions(str(root))
    result.stats = stats
    result.count = len(matches)
    result.matches = matches if collect else []
    return result


def evaluate_twig(document, path, collect=True, runtime=None, profile=None):
    """Convenience wrapper: match ``path`` (with predicates) holistically.

    Returns ``(solutions, output_node_index)`` — the output node is the last
    trunk step, whose distinct bindings equal the pipeline engine's matches.
    ``runtime`` optionally attaches a :class:`~repro.query.runtime.\
    QueryContext` so the holistic pass honours deadlines and cancellation;
    ``profile`` (or ``runtime.profile``) records the pass as one
    ``"holistic"`` operator.
    """
    root, output = twig_from_path(path)
    stats = JoinStats()
    if runtime is not None:
        stats.runtime = runtime.start()
        if profile is None:
            profile = runtime.profile
    if profile is not None:
        with profile.operator("twig-stack %s" % path, "holistic",
                              algorithm="twig-stack",
                              stats=stats) as op:
            solutions = twig_join(document.entries_for_tag, root,
                                  collect=collect, stats=stats)
            op.rows_out = solutions.count
    else:
        solutions = twig_join(document.entries_for_tag, root,
                              collect=collect, stats=stats)
    return solutions, output.index
