"""PathStack — holistic path matching over element streams.

The paper evaluates *binary* structural joins and leaves "complex XML
queries (i.e. a combination of multiple structural joins)" as future work
(Section 7).  The join-pipeline engine in :mod:`repro.query.engine` is one
answer; this module implements the other classic answer: the PathStack
algorithm (Bruno, Koudas, Srivastava: *Holistic Twig Joins*, SIGMOD 2002),
which matches an entire linear path pattern in one synchronized pass over
the per-tag element streams, with a chain of linked stacks encoding all
partial solutions compactly.

Unlike the pipeline (which materializes each step's matches), PathStack
emits complete *path solutions* — one tuple per embedding of the whole
pattern — using memory bounded by the document depth times the path length.
Parent-child edges are checked during solution enumeration, the standard
variant.
"""

from dataclasses import dataclass, field

from repro.joins.base import JoinStats
from repro.query.path import Axis, parse_path


@dataclass
class PathSolutions:
    """Output of one PathStack run."""

    path: str
    solutions: list = field(default_factory=list)
    count: int = 0
    stats: JoinStats = field(default_factory=JoinStats)

    def __len__(self):
        return self.count

    def last_elements(self):
        """Distinct final-step elements, in document order (for comparison
        with the join-pipeline engine's result)."""
        seen = set()
        out = []
        for solution in self.solutions:
            last = solution[-1]
            if last.start not in seen:
                seen.add(last.start)
                out.append(last)
        out.sort(key=lambda e: e.start)
        return out


def path_stack(streams_entries, axes, collect=True, stats=None):
    """Run PathStack over per-step element lists.

    ``streams_entries[i]`` is the start-sorted element list of step ``i``;
    ``axes[i]`` is the axis linking step ``i`` to step ``i - 1``
    (``axes[0]`` is ignored — the first step matches anywhere).  Returns a
    :class:`PathSolutions`.
    """
    stats = stats or JoinStats()
    n = len(streams_entries)
    if n == 0 or any(not entries for entries in streams_entries):
        return PathSolutions("", [], 0, stats)
    streams = [iter(entries) for entries in streams_entries]
    heads = [next(stream) for stream in streams]
    # stacks[i] holds (element, parent_stack_size_at_push): the second
    # component links each frame to the frames of stack i-1 it may combine
    # with (every frame at index < link is a valid ancestor candidate).
    stacks = [[] for _ in range(n)]
    result = PathSolutions("")
    result.stats = stats

    while heads[-1] is not None:
        q_min = _min_stream(heads)
        if q_min is None:
            break
        head = heads[q_min]
        stats.count(1)
        # Pop frames that ended before the new element from every stack.
        for stack in stacks:
            while stack and stack[-1][0].end < head.start:
                stack.pop()
        if q_min == 0 or stacks[q_min - 1]:
            stacks[q_min].append((head, len(stacks[q_min - 1])
                                  if q_min else 0))
            if q_min == n - 1:
                _expand_solutions(stacks, axes, head, result, collect)
                stacks[q_min].pop()
        heads[q_min] = next(streams[q_min], None)
    return result


def _min_stream(heads):
    """Index of the non-exhausted stream with the smallest head start.

    Ties keep the shallowest query node, so for same-tag self-paths the
    ancestor-side copy of an element is stacked before the descendant-side
    copy considers it.  (Exhausted interior streams are fine: deeper
    elements can still combine with frames already on the stacks, and the
    stack-emptiness test in the main loop discards the rest.)
    """
    best = None
    best_start = None
    for index, head in enumerate(heads):
        if head is not None and (best_start is None
                                 or head.start < best_start):
            best = index
            best_start = head.start
    return best


def _expand_solutions(stacks, axes, leaf_element, result, collect):
    """Enumerate all root-to-leaf combinations ending at ``leaf_element``.

    Walks the linked stacks from the leaf inward; a frame at stack ``i``
    pushed with link ``p`` may pair with any frame of stack ``i - 1`` at
    index < ``p`` — plus the parent-child level check when the axis is
    CHILD.
    """
    n = len(stacks)

    def _recurse(step, max_index, suffix):
        if step < 0:
            result.count += 1
            if collect:
                result.solutions.append(tuple(suffix))
            return
        for index in range(max_index - 1, -1, -1):
            element, link = stacks[step][index]
            below = suffix[0]
            if element.start >= below.start or element.end < below.end:
                # Not a strict ancestor — happens for same-tag self-paths
                # (a//a), where one element appears in adjacent streams.
                continue
            if axes[step + 1] is Axis.CHILD and \
                    element.level != below.level - 1:
                continue
            _recurse(step - 1, link if step else 0, [element] + suffix)

    leaf_frame = stacks[n - 1][-1]
    if n == 1:
        result.count += 1
        if collect:
            result.solutions.append((leaf_element,))
        return
    _recurse(n - 2, leaf_frame[1], [leaf_element])


def evaluate_path_stack(document, path, collect=True, profile=None):
    """Convenience wrapper: run PathStack for ``path`` over ``document``.

    Only predicate-free linear paths are supported (PathStack's domain);
    use :class:`~repro.query.engine.PathQueryEngine` for twigs.
    ``profile`` optionally records the pass as one ``"holistic"``
    operator on a :class:`~repro.obs.profile.QueryProfile`.
    """
    expression = parse_path(path) if isinstance(path, str) else path
    if any(step.predicates for step in expression.steps):
        raise ValueError("PathStack handles linear paths; "
                         "use PathQueryEngine for predicates")
    if any(step.axis.is_reverse for step in expression.steps):
        raise ValueError("PathStack handles forward axes only")
    streams = []
    for index, step in enumerate(expression.steps):
        entries = document.entries_for_tag(step.tag)
        if index == 0 and step.axis is Axis.CHILD:
            # Absolute /tag first step binds root-level elements only.
            entries = [e for e in entries if e.level == 0]
        streams.append(entries)
    axes = [step.axis for step in expression.steps]
    if profile is not None:
        stats = JoinStats()
        with profile.operator("path-stack %s" % expression, "holistic",
                              algorithm="path-stack",
                              input_d=sum(len(s) for s in streams),
                              stats=stats) as op:
            result = path_stack(streams, axes, collect=collect, stats=stats)
            op.rows_out = result.count
    else:
        result = path_stack(streams, axes, collect=collect)
    result.path = str(expression)
    return result
