"""Join-order planning for path pipelines.

The paper closes with: "we will be working on query evaluation strategies
for complex XML queries (i.e. a combination of multiple structural joins)".
A pipeline of binary structural joins can associate a linear path in any
order; the intermediate sizes — and hence elements scanned — depend heavily
on which steps join first.  This module provides:

* :func:`chain_plans` — the possible association orders of a step chain;
* :class:`GreedyPlanner` — picks, at each round, the adjacent pair whose
  estimated output is smallest (classic greedy join ordering with
  containment-selectivity estimates);
* :func:`execute_plan` — runs a plan with XR-stack joins, tracking per-join
  statistics, and binds the path's *last* step as the result.

Each binary join between adjacent path fragments keeps, for the left
fragment, the elements that matched as ancestors, and for the right, those
that matched as descendants — so fragments shrink monotonically and the
final intersection at the last step equals the left-to-right pipeline's
answer.
"""

from dataclasses import dataclass, field

from repro.joins.base import JoinStats
from repro.query.engine import semi_join
from repro.query.path import Axis, parse_path


@dataclass
class PlannedJoin:
    """One executed binary join of a plan."""

    left_tag: str
    right_tag: str
    axis: object
    left_in: int
    right_in: int
    survivors_left: int
    survivors_right: int


@dataclass
class PlanResult:
    path: str
    matches: list
    order: list                      # join order as (left_tag, right_tag)
    joins: list = field(default_factory=list)
    stats: JoinStats = field(default_factory=JoinStats)

    def __len__(self):
        return len(self.matches)


class GreedyPlanner:
    """Greedy smallest-pair-first ordering of a path's binary joins.

    The estimate for a join between fragments with frontier sizes ``l`` and
    ``r`` is ``min(l, r)`` — a structural join's surviving frontier cannot
    exceed either input, and the smaller side usually dominates the cost of
    re-probing.  Ties break left to right.
    """

    def order(self, sizes):
        """Return the sequence of edge indexes (0..n-2) to join."""
        remaining = list(range(len(sizes) - 1))
        current = list(sizes)
        order = []
        while remaining:
            best_edge = min(
                remaining,
                key=lambda e: min(current[e], current[e + 1]),
            )
            order.append(best_edge)
            # Joining shrinks both frontiers; model the survivors with the
            # smaller input (a frontier never exceeds either side).
            merged = min(current[best_edge], current[best_edge + 1])
            current[best_edge] = merged
            current[best_edge + 1] = merged
            remaining.remove(best_edge)
        return order


class LeftToRightPlanner:
    """The engine's default order, for comparison."""

    def order(self, sizes):
        return list(range(len(sizes) - 1))


class EstimatingPlanner:
    """Cardinality-estimate-driven join ordering.

    Instead of raw input sizes, each candidate edge is scored by the
    estimated surviving frontier (via
    :func:`repro.query.estimate.estimate_join` on a descendant sample); the
    smallest-survivor edge joins first, and the model sizes shrink by the
    estimated fractions for subsequent rounds.
    """

    def __init__(self, sample_size=128):
        self.sample_size = sample_size
        self.estimates = []  # (edge, JoinEstimate) in decision order

    def order_with_entries(self, frontiers, steps):
        from repro.query.estimate import estimate_join

        sizes = [float(len(f)) for f in frontiers]
        edge_estimates = {}
        for edge in range(len(frontiers) - 1):
            edge_estimates[edge] = estimate_join(
                frontiers[edge], frontiers[edge + 1],
                sample_size=self.sample_size,
                parent_child=steps[edge + 1].axis is Axis.CHILD,
            )
        remaining = list(edge_estimates)
        order = []
        while remaining:
            def survivors(edge):
                estimate = edge_estimates[edge]
                left, right = estimate.survivors(sizes[edge],
                                                 sizes[edge + 1])
                return left + right

            best = min(remaining, key=survivors)
            order.append(best)
            self.estimates.append((best, edge_estimates[best]))
            estimate = edge_estimates[best]
            sizes[best] *= max(estimate.ancestor_fraction, 1e-6)
            sizes[best + 1] *= max(estimate.descendant_fraction, 1e-6)
            remaining.remove(best)
        return order


def execute_plan(document, path, planner=None):
    """Evaluate a linear ``path`` with a chosen join order.

    Fragments are per-step element lists; executing edge ``i`` joins the
    current frontier of step ``i`` (ancestor side) with that of step
    ``i + 1`` (descendant side) on the step's axis, and both frontiers keep
    only their matched elements.  After all edges, the last step's frontier
    is the answer.
    """
    expression = parse_path(path) if isinstance(path, str) else path
    if any(step.predicates for step in expression.steps):
        raise ValueError("the planner handles linear paths; use "
                         "PathQueryEngine for predicates")
    if any(step.axis.is_reverse for step in expression.steps):
        raise ValueError("the planner handles forward axes only")
    steps = list(expression.steps)
    frontiers = []
    for index, step in enumerate(steps):
        entries = list(document.entries_for_tag(step.tag))
        if index == 0 and step.axis is Axis.CHILD:
            entries = [e for e in entries if e.level == 0]
        frontiers.append(entries)
    planner = planner or GreedyPlanner()
    if hasattr(planner, "order_with_entries"):
        order = planner.order_with_entries(frontiers, steps)
    else:
        order = planner.order([len(f) for f in frontiers])
    stats = JoinStats()
    result = PlanResult(str(expression), [], [])
    result.stats = stats
    if any(not frontier for frontier in frontiers):
        return result

    for edge in order:
        left, right = frontiers[edge], frontiers[edge + 1]
        if not left or not right:
            frontiers[edge] = []
            frontiers[edge + 1] = []
            continue
        axis = steps[edge + 1].axis
        survivors_left, survivors_right = semi_join(
            left, right, axis is Axis.CHILD, stats)
        result.joins.append(PlannedJoin(
            steps[edge].tag, steps[edge + 1].tag, axis,
            len(left), len(right),
            len(survivors_left), len(survivors_right),
        ))
        result.order.append((steps[edge].tag, steps[edge + 1].tag))
        frontiers[edge] = survivors_left
        frontiers[edge + 1] = survivors_right

    # Out-of-order execution leaves each frontier as a superset of the true
    # bindings (each edge was checked once, against a possibly-unshrunk
    # neighbour); one left-to-right tightening pass closes the gap.
    for edge in range(len(steps) - 1):
        left, right = frontiers[edge], frontiers[edge + 1]
        if not left or not right:
            frontiers[-1] = []
            break
        _, survivors_right = semi_join(
            left, right, steps[edge + 1].axis is Axis.CHILD, stats)
        frontiers[edge + 1] = survivors_right
    result.matches = frontiers[-1]
    return result

