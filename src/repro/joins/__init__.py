"""Structural join algorithms (Section 2.2, 5.2).

A structural join reports every pair ``(a, d)`` with ``a`` from the ancestor
list and ``d`` from the descendant list such that ``a`` contains ``d``
(ancestor-descendant) or is its parent (parent-child).  Four algorithms are
provided, the paper's Table 1 — XR-stack and the three baselines it is
measured against:

* :func:`stack_tree_join` — Stack-Tree-Desc, the "no-index" baseline;
* :func:`mpmgjn_join` — multi-predicate merge join (Zhang et al.);
* :func:`bplus_join` — Anc_Des_B+ over B+-tree indexed inputs;
* :func:`xr_stack_join` — the paper's XR-stack (Algorithm 6) over XR-trees.
  Its ancestor skip probes only a stored XR-tree; any other ancestor input,
  such as a :class:`MemoryElementList` (a sorted list in the same shape),
  is merged, and either kind may sit on the descendant side.
"""

from repro.joins.base import JoinStats, nested_loop_join
from repro.joins.bplus_join import bplus_join
from repro.joins.memory import MemoryElementList
from repro.joins.mpmgjn import mpmgjn_join
from repro.joins.registry import (
    JoinAlgorithm,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)
from repro.joins.stack_tree import stack_tree_join
from repro.joins.xr_stack import xr_stack_join

__all__ = [
    "JoinAlgorithm",
    "JoinStats",
    "MemoryElementList",
    "algorithm_names",
    "bplus_join",
    "get_algorithm",
    "mpmgjn_join",
    "nested_loop_join",
    "register_algorithm",
    "stack_tree_join",
    "xr_stack_join",
]
