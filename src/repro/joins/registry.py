"""Pluggable registry of structural-join algorithms.

:func:`repro.core.api.structural_join` used to hard-code its dispatch in an
``if/elif`` chain over string names; adding an algorithm meant editing the
facade.  The registry inverts that: each algorithm registers its runner
together with the *input representation* it consumes, and the facade asks
the registry what to build and what to call.

An algorithm's ``input_kind`` names the representation both join inputs
must take; :data:`INPUT_KINDS` maps each to its structure type and builder:

* ``"element-list"`` — a start-sorted :class:`~repro.storage.pagedlist.\
PagedElementList` (the "no index" algorithms);
* ``"b+tree"`` — a :class:`~repro.indexes.bptree.BPlusTree` on start keys;
* ``"xr-tree"`` — an :class:`~repro.indexes.xrtree.XRTree`.

Registering a new algorithm::

    from repro.joins.registry import register_algorithm, INPUT_XRTREE

    def my_join(a_input, d_input, parent_child=False, collect=True,
                stats=None):
        ...
        return pairs, stats

    register_algorithm("my-join", my_join, INPUT_XRTREE,
                       description="home-grown variant")

after which ``structural_join(..., algorithm="my-join")`` works with no
changes to :mod:`repro.core.api`.
"""

from dataclasses import dataclass

from repro.indexes.bptree import BPlusTree
from repro.indexes.xrtree import XRTree
from repro.joins.bplus_join import bplus_join
from repro.joins.mpmgjn import mpmgjn_join
from repro.joins.stack_tree import stack_tree_join
from repro.joins.xr_stack import xr_stack_join
from repro.storage.pagedlist import PagedElementList

INPUT_ELEMENT_LIST = "element-list"
INPUT_BPLUS = "b+tree"
INPUT_XRTREE = "xr-tree"


def build_element_list(entries, pool, fill_factor=1.0):
    """Materialize a start-sorted paged element list (no-index input)."""
    return PagedElementList.build(pool, entries, fill_factor)


def build_bplus_tree(entries, pool, fill_factor=1.0):
    """Bulk-load a B+-tree on the ``start`` attribute."""
    tree = BPlusTree(pool)
    tree.bulk_load(entries, fill_factor)
    return tree


def build_xr_tree(entries, pool, fill_factor=1.0, optimize_split_keys=True):
    """Bulk-load an XR-tree."""
    tree = XRTree(pool, optimize_split_keys=optimize_split_keys)
    tree.bulk_load(entries, fill_factor)
    return tree


#: Each input kind's ``(structure type, builder)``; a builder takes
#: ``(entries, pool, fill_factor)``.
INPUT_KINDS = {
    INPUT_ELEMENT_LIST: (PagedElementList, build_element_list),
    INPUT_BPLUS: (BPlusTree, build_bplus_tree),
    INPUT_XRTREE: (XRTree, build_xr_tree),
}


@dataclass(frozen=True)
class JoinAlgorithm:
    """One registered algorithm: its runner and required input kind."""

    name: str
    runner: object
    input_kind: str
    description: str = ""


_REGISTRY = {}


def register_algorithm(name, runner, input_kind, description="",
                       replace=False):
    """Register ``runner`` under ``name``.

    ``runner`` must have the common join signature ``(a_input, d_input,
    parent_child=False, collect=True, stats=None) -> (pairs, JoinStats)``.
    Re-registering an existing name raises unless ``replace`` is true.
    """
    if input_kind not in INPUT_KINDS:
        raise ValueError(
            "unknown input kind %r (expected one of %s)"
            % (input_kind, ", ".join(INPUT_KINDS))
        )
    if name in _REGISTRY and not replace:
        raise ValueError("algorithm %r is already registered" % name)
    algorithm = JoinAlgorithm(name, runner, input_kind, description)
    _REGISTRY[name] = algorithm
    return algorithm


def get_algorithm(name):
    """The :class:`JoinAlgorithm` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown algorithm %r (expected one of %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None


def algorithm_names():
    """Registered names, built-ins first in their Table 1 order."""
    return tuple(_REGISTRY)


# The paper's Table 1 algorithms, in the order the facade advertises them.
register_algorithm("stack-tree", stack_tree_join, INPUT_ELEMENT_LIST,
                   "Stack-Tree-Desc over plain merged lists")
register_algorithm("mpmgjn", mpmgjn_join, INPUT_ELEMENT_LIST,
                   "multi-predicate merge join (Zhang et al.)")
register_algorithm("b+", bplus_join, INPUT_BPLUS,
                   "Anc_Des_B+ over B+-tree indexed inputs")
register_algorithm("xr-stack", xr_stack_join, INPUT_XRTREE,
                   "the paper's XR-stack (Algorithm 6)")
