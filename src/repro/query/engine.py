"""Evaluating path expressions as pipelines of structural joins.

A path is evaluated left to right: the current matched set plays the
ancestor role in a structural join against the next step's element set, and
the matched descendants become the new current set.  This is precisely the
"combination of multiple structural joins" execution model the paper leaves
as future work, built on the primitives it provides.

Every element set a query reads comes from the stored per-tag XR-tree, per
query: a join's descendant side is the tree itself under either strategy
(XR-stack probes it, ``strategy="stack-tree"`` scans its leaves), and a
list is read from it only where a kernel needs one — the first step's
context, a predicate's candidates and ``explain``'s samples.  A query
reads each set inside the operator that consumes it, so a profile's
operators account for every page the query requests.  The engine keeps no
copy of a set and no state between calls, so it needs no word from its
owner when a set changes, and one engine serves concurrent and re-entrant
callers.  An engine over an in-memory document (no loader) builds and
keeps its own trees.

Evaluation never writes: an intermediate result, already a start-sorted
list, enters the kernel as a :class:`~repro.joins.MemoryElementList`
(:func:`semi_join`), and the kernel emits into a
:class:`~repro.joins.base.MatchSink` that keeps the matches, not the pairs.
XR-stack merges that ancestor side and keeps only its descendant-side
leap; FindAncestors runs only in a tagged ``parent::`` / ``ancestor::``
step, against that tag's stored tree (``*`` is one semi-join instead).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from repro.core.api import StorageContext, build_xr_tree
from repro.indexes.bptree import Finger, items
from repro.joins import MemoryElementList, stack_tree_join, xr_stack_join
from repro.joins.base import JoinStats, MatchSink
from repro.obs.profile import QueryProfile
from repro.obs.trace import NULL_SPAN
from repro.query.path import AttributePredicate, Axis, parse_path
from repro.query.runtime import QueryContext
from repro.storage.errors import ChecksumError

_START = attrgetter("start")


def _read(elements):
    """Read an element set passed on unread (a callable); a list is
    returned as it is."""
    return elements() if callable(elements) else elements


def semi_join(ancestors, descendants, parent_child=False, stats=None,
              algorithm="xr-stack", matched_ancestors=True):
    """One structural join's distinct matched ancestors and descendants,
    each in document order, with no pair list.  ``ancestors`` is a
    start-sorted entry list; ``descendants`` is another, or a stored index
    (a per-tag XR-tree).  With ``matched_ancestors`` off only the
    descendants are kept and the ancestors come back None."""
    if isinstance(descendants, list):
        descendants = MemoryElementList(descendants)
    stats = stats or JoinStats()
    sink = MatchSink(stats, parent_child=parent_child,
                     ancestor_starts=set() if matched_ancestors else None)
    join = xr_stack_join if algorithm == "xr-stack" else stack_tree_join
    join(MemoryElementList(ancestors), descendants, stats=stats, sink=sink)
    if not matched_ancestors:
        return None, sink.descendants
    matched = sink.ancestor_starts
    return ([a for a in ancestors if a.start in matched],
            sink.descendants)


class QueryError(Exception):
    """Evaluation-time failure (unknown tag, unsupported feature, or a
    storage-level fault wrapped with query context).

    When the underlying cause is a :class:`~repro.storage.errors.\
    ChecksumError` surfacing mid-join, the instance carries ``query`` (the
    path text) and ``index_name`` (the tag whose index failed), and chains
    the original error.
    """

    def __init__(self, message, query=None, index_name=None):
        super().__init__(message)
        self.query = query
        self.index_name = index_name


@dataclass
class QueryResult:
    """Matched elements plus the run's accumulated join statistics.

    ``runtime`` is the governing :class:`~repro.query.runtime.\
    QueryContext`, if any; ``profile`` is the :class:`~repro.obs.profile.\
    QueryProfile` with per-operator actuals, when one was attached.
    """

    path: str
    matches: list
    stats: JoinStats = field(default_factory=JoinStats)
    joins_run: int = 0
    runtime: object = None
    profile: object = None

    def __len__(self):
        return len(self.matches)

    def starts(self):
        return [entry.start for entry in self.matches]


@dataclass
class _Run:
    """One evaluation's state, passed down the call chain — the engine
    itself keeps none."""

    stats: JoinStats
    profile: object = None
    joins: int = 0
    #: The tag whose set is being read, for checksum-failure attribution.
    tag: str = None


class PathQueryEngine:
    """Evaluates path expressions over one region-encoded document.

    >>> from repro.workloads import department_dataset
    >>> engine = PathQueryEngine(department_dataset(2000).document)
    >>> result = engine.evaluate("//employee/name")
    >>> len(result) > 0
    True
    """

    def __init__(self, document, context=None, strategy="xr-stack",
                 index_loader=None, observability=None):
        """``index_loader(tag)`` supplies the stored XR-tree for a tag
        (e.g. from a catalog), or None when it has none; without a loader
        the engine builds and owns one XR-tree per tag in ``context``.
        ``document`` answers ``tags()`` (for ``*``) and, without a loader,
        ``entries_for_tag``.

        ``observability`` optionally attaches an
        :class:`~repro.obs.Observability` hub: its tracer is wired to the
        buffer pool (page-fetch events) and every evaluation feeds the
        hub's query metrics and slow-query log.
        """
        if strategy not in ("xr-stack", "stack-tree"):
            raise QueryError("unknown strategy %r" % strategy)
        self.document = document
        self.context = context or StorageContext()
        self.strategy = strategy
        self.observability = observability
        if observability is not None and self.context.pool.tracer is None:
            self.context.pool.tracer = observability.tracer
        self._index_loader = index_loader
        self._own_trees = {}

    # -- element-set access -----------------------------------------------------

    def index_for(self, tag):
        """The XR-tree over ``tag``'s element set, or None when it has none.

        A loader's trees belong to the loader (typically the index manager
        behind a database or session), so they are fetched on every call
        and never kept here.  Only an engine without a loader builds trees,
        once per tag, and keeps them.
        """
        if self._index_loader is not None:
            return self._index_loader(tag)
        if tag not in self._own_trees:
            entries = self.document.entries_for_tag(tag)
            self._own_trees[tag] = (build_xr_tree(entries, self.context.pool)
                                    if entries else None)
        return self._own_trees[tag]

    def entries_for(self, tag):
        """``tag``'s element set as a start-sorted list, read from its tree
        on every call (``*``: every visible tag's, merged)."""
        if tag == "*":
            merged = [entry for known in self.document.tags()
                      for entry in self.entries_for(known)]
            merged.sort(key=_START)
            return merged
        tree = self.index_for(tag)
        return [] if tree is None else list(items(tree))

    def _first_set(self, step):
        """The set a path's first step binds: an absolute ``/tag`` step
        binds only root-level elements."""
        entries = self.entries_for(step.tag)
        if step.axis is Axis.CHILD:
            entries = [e for e in entries if e.level == 0]
        return entries

    def _entries(self, run, tag):
        run.tag = tag
        return self.entries_for(tag)

    def _unread(self, run, tag):
        """``tag``'s set, to be read by the operator that consumes it (see
        :func:`_read`), so that its page requests are charged there."""
        return partial(self._entries, run, tag)

    def _source(self, run, tag):
        """``tag``'s set as a join input: its tree, or for ``*`` the merged
        list; None when the set is empty."""
        run.tag = tag
        if tag == "*":
            merged = self.entries_for(tag)
            return MemoryElementList(merged) if merged else None
        tree = self.index_for(tag)
        return tree if tree is not None and tree.size else None

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, path, runtime=None, profile=None):
        """Evaluate ``path`` (text or a parsed expression).

        Returns a :class:`QueryResult` whose matches are the elements bound
        to the path's *last* step, in document order.

        ``runtime`` optionally attaches a :class:`~repro.query.runtime.\
        QueryContext` governing the run: a tripped deadline, cancellation,
        page quota or row cap raises its typed error.

        ``profile`` optionally attaches a :class:`~repro.obs.profile.\
        QueryProfile` recording per-operator actuals (it may also ride in
        on ``runtime.profile``); when an observability hub is wired, every
        evaluation — including failed ones — feeds the query metrics.
        """
        expression = parse_path(path) if isinstance(path, str) else path
        text = str(expression)
        if profile is None and runtime is not None:
            profile = runtime.profile
        if profile is not None:
            if not profile.path:
                profile.path = text
            if not profile.strategy:
                profile.strategy = self.strategy
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        span = (tracer.span("query", path=text,
                            strategy=self.strategy)
                if tracer is not None else NULL_SPAN)
        pool = self.context.pool
        base_hits = pool.stats.hits
        base_misses = pool.stats.misses
        started = time.perf_counter()
        if runtime is not None:
            runtime.start(pool)
        try:
            with span:
                result = self._evaluate_once(expression, text, runtime,
                                             profile)
        except Exception as exc:
            self._finish_query(text, profile, started, base_hits,
                               base_misses, rows=0,
                               error=type(exc).__name__)
            raise
        self._finish_query(text, profile, started, base_hits, base_misses,
                           rows=len(result), error=None)
        return result

    def _finish_query(self, text, profile, started, base_hits,
                      base_misses, rows, error):
        """Stamp query-level totals on the profile and feed the metrics."""
        seconds = time.perf_counter() - started
        stats = self.context.pool.stats
        hits = stats.hits - base_hits
        misses = stats.misses - base_misses
        if profile is not None:
            profile.wall_seconds += seconds
            profile.page_hits += hits
            profile.page_misses += misses
            profile.page_requests += hits + misses
            profile.rows = rows
        obs = self.observability
        if obs is not None:
            obs.observe_query(text, seconds, hits + misses, rows,
                              error=error)

    def _evaluate_once(self, expression, text, runtime, profile):
        """One evaluation pass; ``text`` is the expression rendered once.

        A :class:`~repro.storage.errors.ChecksumError` escaping from deep
        inside a join loop (a corrupt index page read mid-query) is
        wrapped into :class:`QueryError` carrying the query text and the
        failing index's tag, chaining the original error.
        """
        run = _Run(JoinStats(), profile)
        run.stats.runtime = runtime
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        try:
            steps = list(expression.steps)
            if tracer is not None and tracer.enabled:
                tracer.event("plan", strategy=self.strategy,
                             steps=len(steps), path=text)
            first = steps[0]
            if first.axis.is_reverse:
                raise QueryError("a path cannot start with a reverse axis")
            with self._operator(run, "scan %s%s" % (first.axis.value,
                                                     first.tag),
                                "scan", "element-list", tag=first.tag) as op:
                run.tag = first.tag
                current = self._first_set(first)
                if op is not None:
                    op.input_d = len(current)
                    op.rows_out = len(current)
            current = self._apply_predicates(run, current, first)
            for step in steps[1:]:
                if not current:
                    break
                if runtime is not None:
                    runtime.check()
                current = self._join_step(run, current, step)
                run.joins += 1
                current = self._apply_predicates(run, current, step)
        except ChecksumError as exc:
            raise QueryError(
                "query %s failed: %s (index for tag %r is corrupt)"
                % (text, exc, run.tag),
                query=text, index_name=run.tag,
            ) from exc
        return QueryResult(text, current, run.stats, run.joins,
                           runtime=runtime, profile=profile)

    @contextmanager
    def _operator(self, run, name, kind, algorithm, tag="", input_a=0,
                  input_d=0):
        """Record one executed operator: a profiler entry (when a profile
        is armed) plus a tracer span (when tracing is enabled).  Yields the
        :class:`~repro.obs.profile.OperatorProfile` — or None when no
        profile is attached, so callers guard their ``rows_out`` stamp."""
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        span = (tracer.span("operator", name=name, op=kind,
                            algorithm=algorithm)
                if tracer is not None else NULL_SPAN)
        profile = run.profile
        with span:
            if profile is None:
                yield None
                return
            with profile.operator(name, kind=kind, algorithm=algorithm,
                                  tag=tag, input_a=input_a, input_d=input_d,
                                  stats=run.stats,
                                  pool=self.context.pool) as op:
                yield op
            span.note(rows=op.rows_out, pairs=op.pairs,
                      pages=op.page_requests)

    def _join_step(self, run, ancestors, step):
        if step.axis.is_reverse:
            return self._reverse_step(run, ancestors, step)
        descendants = self._source(run, step.tag)
        if descendants is None:
            return []
        parent_child = step.axis is Axis.CHILD
        name = "%s-join //%s" % ("child" if parent_child else "descendant",
                                 step.tag)
        with self._operator(run, name, "join", self.strategy, tag=step.tag,
                            input_a=len(ancestors),
                            input_d=descendants.size) as op:
            _, matched = semi_join(ancestors, descendants, parent_child,
                                   run.stats, self.strategy,
                                   matched_ancestors=False)
            if op is not None:
                op.rows_out = len(matched)
        return matched

    def _reverse_step(self, run, context, step):
        """``parent::`` / ``ancestor::`` steps.  A tagged step makes one
        FindAncestors probe per context element against the target tag's
        XR-tree — the Section 5.1 primitives driving navigation *up* the
        tree, sharing one finger as a join's do.  A ``*`` step has no
        tree: it is one semi-join of the merged set against the context
        (``parent::`` on the child axis)."""
        axis_name = step.axis.name.lower()
        if step.tag == "*":
            with self._operator(run, "%s-join //*" % axis_name, "join",
                                self.strategy, input_d=len(context)) as op:
                merged = self._entries(run, "*")
                out, _ = semi_join(merged, context, axis_name == "parent",
                                   run.stats, self.strategy)
                if op is not None:
                    op.input_a = len(merged)
                    op.rows_out = len(out)
            return out
        tree = self._source(run, step.tag)
        if tree is None:
            return []
        stats = run.stats
        with self._operator(run, "%s-probe //%s" % (axis_name, step.tag),
                            "probe", "find-ancestors", tag=step.tag,
                            input_a=tree.size,
                            input_d=len(context)) as op:
            seen = set()
            out = []
            finger = Finger()
            for element in context:
                stats.checkpoint()
                required = (element.level - 1 if step.axis is Axis.PARENT
                            else None)
                found = tree.find_ancestors(element.start, counter=stats,
                                            required_level=required,
                                            finger=finger)
                for ancestor in found:
                    if ancestor.start not in seen:
                        seen.add(ancestor.start)
                        out.append(ancestor)
            out.sort(key=_START)
            if op is not None:
                op.rows_out = len(out)
        return out

    # -- predicates (twig filters) ------------------------------------------------

    def _apply_predicates(self, run, matches, step):
        """Keep only elements satisfying every ``[...]`` predicate —
        structural (``[rel-path]``) or value (``[@attr=...]``).  ``matches``
        may be unread (see :meth:`_unread`); the first filter reads it."""
        for predicate in step.predicates:
            if not matches:
                break
            if isinstance(predicate, AttributePredicate):
                matches = self._filter_attribute(run, matches, predicate)
            else:
                matches = self._filter_exists(run, matches, predicate)
        return matches

    def _filter_attribute(self, run, matches, predicate):
        """Value search: keep elements whose source node carries the
        attribute (and value, when given).  Requires a document exposing
        ``node_at`` — entry ``ptr`` fields are document ordinals."""
        node_at = getattr(self.document, "node_at", None)
        if node_at is None:
            raise QueryError(
                "attribute predicates need node access; this document "
                "view does not provide node_at()"
            )
        stats = run.stats
        with self._operator(run, "filter [@%s]" % predicate.name, "filter",
                            "value-lookup") as op:
            matches = _read(matches)
            survivors = []
            for element in matches:
                stats.checkpoint()
                stats.count(1)
                node = node_at(element.ptr)
                value = node.attributes.get(predicate.name)
                if value is None:
                    continue
                if predicate.value is None or value == predicate.value:
                    survivors.append(element)
            if op is not None:
                op.input_d = len(matches)
                op.rows_out = len(survivors)
        return survivors

    def _filter_exists(self, run, context, predicate):
        """Existential twig filter, evaluated as semi-joins right to left.

        For a predicate ``t1 / t2 // t3`` the qualifying ``t2`` elements are
        those with a ``t3`` descendant, the qualifying ``t1`` those with a
        qualifying ``t2`` child, and the surviving context elements those
        with a qualifying ``t1`` on the predicate's leading axis.  Each
        step's set is passed on unread, so the operator consuming it reads
        it.
        """
        steps = list(predicate.steps)
        if any(step.axis.is_reverse for step in steps):
            raise QueryError("reverse axes are not supported inside "
                             "predicates")
        current = self._apply_predicates(
            run, self._unread(run, steps[-1].tag), steps[-1])
        for earlier, later in zip(reversed(steps[:-1]), reversed(steps[1:])):
            candidates = self._apply_predicates(
                run, self._unread(run, earlier.tag), earlier)
            current = self._semi_join(run, candidates, current, later.axis)
        return self._semi_join(run, context, current, steps[0].axis)

    def _semi_join(self, run, ancestors, descendants, axis):
        """Distinct ancestors with at least one match among descendants;
        either side may be unread (see :meth:`_unread`)."""
        if not ancestors or not descendants:
            return []
        parent_child = axis is Axis.CHILD
        name = "semi-join (%s)" % ("child" if parent_child
                                   else "descendant")
        with self._operator(run, name, "semi-join", self.strategy) as op:
            ancestors, descendants = _read(ancestors), _read(descendants)
            survivors = []
            if ancestors and descendants:
                run.joins += 1
                survivors, _ = semi_join(ancestors, descendants,
                                         parent_child, run.stats,
                                         self.strategy)
            if op is not None:
                op.input_a = len(ancestors)
                op.input_d = len(descendants)
                op.rows_out = len(survivors)
        return survivors

    def explain(self, path, analyze=False, runtime=None, profile=None):
        """Describe how ``path`` would run — and, with ``analyze=True``,
        how it *did* run.

        Returns a multi-line plan: one line per binary structural join or
        predicate filter, with the element-set sizes the engine would feed
        each operator and the estimated join cardinalities (sampled — see
        :mod:`repro.query.estimate`).

        ``analyze=True`` additionally executes the query under a
        :class:`~repro.obs.profile.QueryProfile` (governed by ``runtime``
        when given) and appends the per-operator actuals, with the
        sampled estimate shown beside each join's measured pair count —
        EXPLAIN ANALYZE.  Without ``analyze`` no join is executed.

        ``profile`` optionally supplies the profile to fill instead of a
        fresh one — the same ``(runtime=None, profile=None)`` trio
        :meth:`evaluate` takes; passing a profile implies ``analyze``.
        """
        from repro.query.estimate import estimate_join

        expression = parse_path(path) if isinstance(path, str) else path
        steps = list(expression.steps)
        if steps[0].axis.is_reverse:
            raise QueryError("a path cannot start with a reverse axis")
        lines = ["plan for %s (strategy=%s)" % (expression, self.strategy)]
        previous_tag = steps[0].tag
        previous_entries = self._first_set(steps[0])
        lines.append("  scan %-20s -> %d elements"
                     % (previous_tag, len(previous_entries)))
        lines.extend(self._explain_predicates(steps[0], indent="  "))
        # One entry per non-first step: (estimate, the tag whose unfiltered
        # set it sampled when that is more than the join reads), None for
        # probes.
        step_estimates = []
        for previous, step in zip(steps, steps[1:]):
            entries = self.entries_for(step.tag)
            if step.axis.is_reverse:
                step_estimates.append(None)
                how = ("join %s (%d): one semi-join" if step.tag == "*"
                       else "probe into %s (%d): FindAncestors per match")
                lines.append("  %s-%s" % (step.axis.name.lower(),
                                          how % (step.tag, len(entries))))
                lines.extend(self._explain_predicates(step, indent="  "))
                previous_tag = step.tag
                previous_entries = entries
                continue
            estimate = estimate_join(
                previous_entries, entries,
                parent_child=step.axis is Axis.CHILD,
            )
            # Only the first step's unfiltered set is what the join gets.
            # Predicates filter a step's set before the join runs, and a
            # later step's ancestor side is what the steps before it
            # matched: its whole tag set is an upper bound, and the
            # estimate samples that whole set.
            exact = previous is steps[0] and not previous.predicates
            step_estimates.append(
                (estimate, None if exact else previous_tag))
            lines.append(
                "  %s-join %s (%s%d) with %s (%d) -> ~%d pairs, "
                "~%d%% of %s match%s"
                % ("child" if step.axis is Axis.CHILD else "descendant",
                   previous_tag, "" if exact else "≤",
                   len(previous_entries), step.tag,
                   len(entries), round(estimate.pairs),
                   round(100 * estimate.descendant_fraction), step.tag,
                   "" if exact else
                   ", sampled from the unfiltered %s set" % previous_tag)
            )
            lines.extend(self._explain_predicates(step, indent="  "))
            previous_tag = step.tag
            previous_entries = entries
        if not analyze and profile is None:
            return "\n".join(lines)
        if profile is None:
            profile = QueryProfile(str(expression), self.strategy)
        if runtime is None:
            runtime = QueryContext()
        runtime.profile = profile
        self.evaluate(expression, runtime=runtime)
        # Match sampled estimates to the executed step operators in step
        # order (scan/filter/semi-join operators are interleaved but keep
        # their own kinds, so only join/probe entries consume a step).
        step_ops = [op for op in profile.operators
                    if op.kind in ("join", "probe")]
        for op, estimate in zip(step_ops, step_estimates):
            if estimate is not None and op.kind == "join":
                op.est_pairs = estimate[0].pairs
                op.est_sampled_from = estimate[1]
        return "\n".join(lines) + "\n\n" + profile.render()

    def _explain_predicates(self, step, indent):
        from repro.query.path import render_predicate

        lines = []
        for predicate in step.predicates:
            if isinstance(predicate, AttributePredicate):
                lines.append("%s  filter [%s] (value lookup per match)"
                             % (indent, render_predicate(predicate)))
            else:
                lines.append("%s  semi-join filter [%s]"
                             % (indent, render_predicate(predicate)))
        return lines
