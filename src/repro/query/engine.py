"""Evaluating path expressions as pipelines of structural joins.

The engine indexes each queried element set with an XR-tree (built lazily and
cached), then evaluates a path left to right: the current matched set plays
the ancestor role in a structural join against the next step's element set,
and the matched descendants become the new current set.  This is precisely
the "combination of multiple structural joins" execution model the paper
leaves as future work, built on the primitives it provides.

Evaluation never writes: an intermediate result, already a start-sorted
list, enters XR-stack as a :class:`~repro.joins.MemoryElementList` against
the step's per-tag XR-tree (:func:`semi_join`).  ``strategy="stack-tree"``
merges the element lists instead (plan comparison; the page-quota fallback).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.api import StorageContext, build_xr_tree
from repro.indexes.bptree import Finger
from repro.joins import MemoryElementList, stack_tree_join, xr_stack_join
from repro.joins.base import JoinStats
from repro.obs.profile import QueryProfile
from repro.obs.trace import NULL_SPAN
from repro.query.path import AttributePredicate, Axis, parse_path
from repro.query.runtime import PageQuotaExceeded, QueryContext
from repro.storage.errors import ChecksumError


def semi_join(ancestors, descendants, parent_child=False, stats=None,
              algorithm="xr-stack"):
    """One structural join's distinct matched ancestors and descendants,
    each in document order.  ``ancestors`` is a start-sorted entry list;
    ``descendants`` is another, or a built index (a per-tag XR-tree)."""
    if isinstance(descendants, list):
        descendants = MemoryElementList(descendants)
    join = xr_stack_join if algorithm == "xr-stack" else stack_tree_join
    pairs, _ = join(MemoryElementList(ancestors), descendants,
                    parent_child=parent_child, stats=stats)
    matched_a = {a.start: a for a, _ in pairs}
    matched_d = {d.start: d for _, d in pairs}
    return ([matched_a[start] for start in sorted(matched_a)],
            [matched_d[start] for start in sorted(matched_d)])


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

    ``degraded`` is True when the page quota tripped mid-evaluation and
    the engine completed the query on the streaming stack-tree plan
    instead (``degrade_reason`` names the trigger); ``runtime`` is the
    governing :class:`~repro.query.runtime.QueryContext`, if any;
    ``profile`` is the :class:`~repro.obs.profile.QueryProfile` with
    per-operator actuals, when one was attached.
    """

    path: str
    matches: list
    stats: JoinStats = field(default_factory=JoinStats)
    joins_run: int = 0
    degraded: bool = False
    degrade_reason: str = None
    runtime: object = None
    profile: object = None

    def __len__(self):
        return len(self.matches)

    def starts(self):
        return [entry.start for entry in self.matches]


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
        """``index_loader(tag)`` supplies the persisted XR-tree for a tag
        (e.g. from a catalog), or None when it has none; without a loader
        the engine builds and owns one XR-tree per tag in ``context``.

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
        self._tag_entries = {}
        self._tag_indexes = {}
        self._all_tags = None
        self._strategy_override = None
        self._active_tag = None
        self._profile = None

    # -- element-set access -----------------------------------------------------

    def entries_for(self, tag):
        """The start-sorted element set for ``tag`` (cached)."""
        self._active_tag = tag  # checksum-failure attribution
        if tag not in self._tag_entries:
            if tag == "*":
                if self._all_tags is None:
                    self._all_tags = sorted(self.document.tags())
                entries = []
                for known in self._all_tags:
                    entries.extend(self.entries_for(known))
                entries.sort(key=lambda e: e.start)
                self._tag_entries[tag] = entries
            else:
                self._tag_entries[tag] = self.document.entries_for_tag(tag)
        return self._tag_entries[tag]

    def index_for(self, tag):
        """The index over ``tag``'s element set.

        Loader-provided trees are *not* cached here: the loader (typically
        an :class:`~repro.storage.indexmanager.IndexManager` behind an
        :class:`~repro.core.database.XmlDatabase`) owns their lifecycle,
        and double-caching would let this engine serve a handle the manager
        already discarded or dropped.  Its owner owns the pages too: a tag
        it has no tree for (``"*"``) is served from memory, and only an
        engine without a loader builds trees (``_tag_indexes`` keeps both).
        """
        self._active_tag = tag  # checksum-failure attribution
        if self._index_loader is not None:
            tree = self._index_loader(tag)
            if tree is not None:
                return tree
        if tag not in self._tag_indexes:
            entries = self.entries_for(tag)
            self._tag_indexes[tag] = (
                build_xr_tree(entries, self.context.pool)
                if self._index_loader is None
                else MemoryElementList(entries))
        return self._tag_indexes[tag]

    # -- cache invalidation ---------------------------------------------------

    def invalidate_tag(self, tag):
        """Drop cached state for one tag (after its element set mutated).

        The ``"*"`` wildcard set aggregates every tag, so it is dropped
        alongside, as is the known-tag list (the mutation may have
        introduced or removed a tag).
        """
        for cache in (self._tag_entries, self._tag_indexes):
            cache.pop(tag, None)
            cache.pop("*", None)
        self._all_tags = None

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, path, runtime=None, profile=None):
        """Evaluate ``path`` (text or a parsed expression).

        Returns a :class:`QueryResult` whose matches are the elements bound
        to the path's *last* step, in document order.

        ``runtime`` optionally attaches a :class:`~repro.query.runtime.\
        QueryContext` governing the run.  Deadlines, cancellation and row
        caps raise their typed errors; a tripped *page quota* instead
        walks the degradation ladder: an xr-stack evaluation is retried
        once as a streaming stack-tree plan (sequential scans of the
        element lists, no index probes) with the quota rebased, and the
        result is marked ``degraded``.  If the streaming plan exhausts the
        quota too, :class:`~repro.query.runtime.PageQuotaExceeded` surfaces.

        ``profile`` optionally attaches a :class:`~repro.obs.profile.\
        QueryProfile` recording per-operator actuals (it may also ride in
        on ``runtime.profile``); when an observability hub is wired, every
        evaluation — including failed ones — feeds the query metrics.
        """
        expression = parse_path(path) if isinstance(path, str) else path
        if profile is None and runtime is not None:
            profile = runtime.profile
        if profile is not None:
            if not profile.path:
                profile.path = str(expression)
            if not profile.strategy:
                profile.strategy = self.strategy
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        span = (tracer.span("query", path=str(expression),
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
                try:
                    result = self._evaluate_once(expression, runtime,
                                                 profile=profile)
                except PageQuotaExceeded:
                    if (runtime is None or not runtime.allow_degraded
                            or runtime.degraded
                            or self.strategy != "xr-stack"):
                        raise
                    runtime.enter_degraded("page-quota")
                    if tracer is not None and tracer.enabled:
                        tracer.event("degrade", reason="page-quota",
                                     fallback="stack-tree")
                    if profile is not None:
                        profile.degraded = True
                    result = self._evaluate_once(expression, runtime,
                                                 strategy="stack-tree",
                                                 profile=profile)
                    result.degraded = True
                    result.degrade_reason = "page-quota"
        except Exception as exc:
            self._finish_query(expression, profile, started, base_hits,
                               base_misses, rows=0, degraded=False,
                               error=type(exc).__name__)
            raise
        self._finish_query(expression, profile, started, base_hits,
                           base_misses, rows=len(result),
                           degraded=result.degraded, error=None)
        return result

    def _finish_query(self, expression, profile, started, base_hits,
                      base_misses, rows, degraded, error):
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
            profile.degraded = profile.degraded or degraded
        obs = self.observability
        if obs is not None:
            obs.observe_query(str(expression), seconds, hits + misses,
                              rows, degraded=degraded, error=error)

    def _evaluate_once(self, expression, runtime=None, strategy=None,
                       profile=None):
        """One evaluation pass under an optional forced strategy.

        A :class:`~repro.storage.errors.ChecksumError` escaping from deep
        inside a join loop (a corrupt index page read mid-query) is
        wrapped into :class:`QueryError` carrying the query text and the
        failing index's tag, chaining the original error.
        """
        stats = JoinStats()
        stats.runtime = runtime
        self._joins_run = 0
        self._strategy_override = strategy
        self._active_tag = None
        self._profile = profile
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        try:
            steps = list(expression.steps)
            if tracer is not None and tracer.enabled:
                tracer.event("plan", strategy=self._current_strategy(),
                             steps=len(steps), path=str(expression))
            first = steps[0]
            if first.axis.is_reverse:
                raise QueryError("a path cannot start with a reverse axis")
            self._active_tag = first.tag
            with self._operator("scan //%s" % first.tag, "scan",
                                "element-list", stats,
                                tag=first.tag) as op:
                current = list(self.entries_for(first.tag))
                if first.axis is Axis.CHILD:
                    # An absolute /tag step binds only root-level elements.
                    current = [e for e in current if e.level == 0]
                if op is not None:
                    op.input_d = len(current)
                    op.rows_out = len(current)
            current = self._apply_predicates(current, first, stats)
            for step in steps[1:]:
                if not current:
                    break
                if runtime is not None:
                    runtime.check()
                self._active_tag = step.tag
                current = self._join_step(current, step, stats)
                self._joins_run += 1
                current = self._apply_predicates(current, step, stats)
        except ChecksumError as exc:
            raise QueryError(
                "query %s failed: %s (index for tag %r is corrupt)"
                % (expression, exc, self._active_tag),
                query=str(expression), index_name=self._active_tag,
            ) from exc
        finally:
            self._strategy_override = None
            self._profile = None
        return QueryResult(str(expression), current, stats, self._joins_run,
                           runtime=runtime, profile=profile)

    def _current_strategy(self):
        """The strategy in force: a degradation override, else the default."""
        return self._strategy_override or self.strategy

    @contextmanager
    def _operator(self, name, kind, algorithm, stats, tag="",
                  input_a=0, input_d=0):
        """Record one executed operator: a profiler entry (when a profile
        is armed) plus a tracer span (when tracing is enabled).  Yields the
        :class:`~repro.obs.profile.OperatorProfile` — or None when no
        profile is attached, so callers guard their ``rows_out`` stamp."""
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        span = (tracer.span("operator", name=name, op=kind,
                            algorithm=algorithm)
                if tracer is not None else NULL_SPAN)
        profile = self._profile
        with span:
            if profile is None:
                yield None
                return
            with profile.operator(name, kind=kind, algorithm=algorithm,
                                  tag=tag, input_a=input_a, input_d=input_d,
                                  stats=stats,
                                  pool=self.context.pool) as op:
                yield op
            span.note(rows=op.rows_out, pairs=op.pairs,
                      pages=op.page_requests)

    def _reverse_step(self, context, step, stats):
        """``parent::`` / ``ancestor::`` steps: one FindAncestors probe per
        context element against the target tag's XR-tree — the Section 5.1
        primitives driving navigation *up* the tree.  The context is in
        start order, so the probes share one finger, as a join's do."""
        tree = self.index_for(step.tag)
        axis_name = "parent" if step.axis is Axis.PARENT else "ancestor"
        with self._operator("%s-probe //%s" % (axis_name, step.tag),
                            "probe", "find-ancestors", stats, tag=step.tag,
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
            out.sort(key=lambda e: e.start)
            if op is not None:
                op.rows_out = len(out)
        return out

    # -- predicates (twig filters) ------------------------------------------------

    def _apply_predicates(self, matches, step, stats):
        """Keep only elements satisfying every ``[...]`` predicate —
        structural (``[rel-path]``) or value (``[@attr=...]``)."""
        for predicate in step.predicates:
            if not matches:
                break
            if isinstance(predicate, AttributePredicate):
                matches = self._filter_attribute(matches, predicate, stats)
            else:
                matches = self._filter_exists(matches, predicate, stats)
        return matches

    def _filter_attribute(self, matches, predicate, stats):
        """Value search: keep elements whose source node carries the
        attribute (and value, when given).  Requires a document exposing
        ``node_at`` — entry ``ptr`` fields are document ordinals."""
        node_at = getattr(self.document, "node_at", None)
        if node_at is None:
            raise QueryError(
                "attribute predicates need node access; this document "
                "view does not provide node_at()"
            )
        with self._operator("filter [@%s]" % predicate.name, "filter",
                            "value-lookup", stats,
                            input_d=len(matches)) as op:
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
                op.rows_out = len(survivors)
        return survivors

    def _filter_exists(self, context, predicate, stats):
        """Existential twig filter, evaluated as semi-joins right to left.

        For a predicate ``t1 / t2 // t3`` the qualifying ``t2`` elements are
        those with a ``t3`` descendant, the qualifying ``t1`` those with a
        qualifying ``t2`` child, and the surviving context elements those
        with a qualifying ``t1`` on the predicate's leading axis.
        """
        steps = list(predicate.steps)
        if any(step.axis.is_reverse for step in steps):
            raise QueryError("reverse axes are not supported inside "
                             "predicates")
        current = list(self.entries_for(steps[-1].tag))
        current = self._apply_predicates(current, steps[-1], stats)
        for earlier, later in zip(reversed(steps[:-1]), reversed(steps[1:])):
            candidates = list(self.entries_for(earlier.tag))
            candidates = self._apply_predicates(candidates, earlier, stats)
            current = self._semi_join(candidates, current, later.axis, stats)
        return self._semi_join(context, current, steps[0].axis, stats)

    def _semi_join(self, ancestors, descendants, axis, stats):
        """Distinct ancestors with at least one match among descendants."""
        if not ancestors or not descendants:
            return []
        self._joins_run += 1
        parent_child = axis is Axis.CHILD
        algorithm = self._current_strategy()
        name = "semi-join (%s)" % ("child" if parent_child
                                   else "descendant")
        with self._operator(name, "semi-join", algorithm, stats,
                            input_a=len(ancestors),
                            input_d=len(descendants)) as op:
            survivors, _ = semi_join(ancestors, descendants, parent_child,
                                     stats, algorithm)
            if op is not None:
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
        size = len(self.entries_for(steps[0].tag))
        lines.append("  scan %-20s -> %d elements"
                     % (steps[0].tag, size))
        lines.extend(self._explain_predicates(steps[0], indent="  "))
        previous_tag = steps[0].tag
        previous_entries = self.entries_for(steps[0].tag)
        step_estimates = []  # one entry per non-first step; None for probes
        for step in steps[1:]:
            entries = self.entries_for(step.tag)
            if step.axis.is_reverse:
                step_estimates.append(None)
                lines.append(
                    "  %s-probe into %s (%d): FindAncestors per match"
                    % ("parent" if step.axis.name == "PARENT"
                       else "ancestor", step.tag, len(entries))
                )
                lines.extend(self._explain_predicates(step, indent="  "))
                previous_tag = step.tag
                previous_entries = entries
                continue
            estimate = estimate_join(
                previous_entries, entries,
                parent_child=step.axis is Axis.CHILD,
            )
            step_estimates.append(estimate)
            lines.append(
                "  %s-join %s (%d) with %s (%d) -> ~%d pairs, "
                "~%d%% of %s match"
                % ("child" if step.axis is Axis.CHILD else "descendant",
                   previous_tag, len(previous_entries), step.tag,
                   len(entries), round(estimate.pairs),
                   round(100 * estimate.descendant_fraction), step.tag)
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
                op.est_pairs = estimate.pairs
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

    def _join_step(self, ancestors, step, stats):
        if step.axis.is_reverse:
            return self._reverse_step(ancestors, step, stats)
        parent_child = step.axis is Axis.CHILD
        descendants = self.entries_for(step.tag)
        if not descendants:
            return []
        algorithm = self._current_strategy()
        name = "%s-join //%s" % ("child" if parent_child else "descendant",
                                 step.tag)
        with self._operator(name, "join", algorithm, stats, tag=step.tag,
                            input_a=len(ancestors),
                            input_d=len(descendants)) as op:
            if algorithm == "xr-stack":
                descendants = self.index_for(step.tag)
            _, matched = semi_join(ancestors, descendants, parent_child,
                                   stats, algorithm)
            if op is not None:
                op.rows_out = len(matched)
        return matched
