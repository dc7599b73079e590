"""Secondary studies: stab-list sizes (Section 3.3), update costs
(Theorems 1-2), design ablations, the merge-baseline / parent-child joins
(Sections 2.2, 5.3) and scale stability."""

from dataclasses import dataclass
from random import Random

from repro.bench.harness import ExperimentConfig, run_selectivity_sweep
from repro.core.api import StorageContext, build_xr_tree, structural_join
from repro.indexes.bptree import BPlusTree
from repro.indexes.xrtree import XRTree, XRLeafPage
from repro.indexes.xrtree.stablist import StabList
from repro.workloads.datasets import department_dataset
from repro.xmldata.dtd import DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator


@dataclass
class StabListReport:
    """Section 3.3 measurements for one indexed element set."""

    nesting: int                # max same-tag nestings h_d
    elements: int
    stabbed_elements: int       # total records across all stab lists
    leaf_pages: int
    stab_pages: int             # chain pages (directories excluded)
    directory_pages: int
    internal_nodes: int
    max_stab_pages_per_node: int

    @property
    def avg_stab_pages_per_node(self):
        if not self.internal_nodes:
            return 0.0
        return self.stab_pages / self.internal_nodes

    @property
    def stab_to_leaf_ratio(self):
        """The paper's "<10 % of leaf pages" metric."""
        if not self.leaf_pages:
            return 0.0
        return self.stab_pages / self.leaf_pages


def stab_list_study(target_elements=8000, nesting_levels=(4, 8, 12, 16),
                    seed=3, page_size=4096, profile="department"):
    """Build indexes at several nesting depths and measure stab lists,
    substituting a generator nesting sweep for the paper's XMach/XMark
    element-set selections.

    ``profile="department"`` sweeps the directly recursive ``employee``
    set; ``profile="auction"`` the indirectly recursive ``parlist`` set of
    the XMark-style DTD.
    """
    from repro.xmldata.dtd import AUCTION_DTD

    if profile == "department":
        dtd, tag = DEPARTMENT_DTD, "employee"
    elif profile == "auction":
        dtd, tag = AUCTION_DTD, "parlist"
    else:
        raise ValueError("unknown profile %r" % profile)
    reports = []
    for depth in nesting_levels:
        config = GeneratorConfig(mean_repeat=2.0, recursion_decay=0.92,
                                 max_depth=depth + 2)
        generator = XmlGenerator(dtd, config, seed=seed)
        document = generator.generate(target_elements)
        entries = document.entries_for_tag(tag)
        context = StorageContext(page_size=page_size,
                                 buffer_pages=max(100, 4 * depth))
        tree = build_xr_tree(entries, context.pool)
        reports.append(measure_stab_lists(
            tree, document.max_nesting(tag)
        ))
    return reports


def measure_stab_lists(tree, nesting):
    """Walk an XR-tree and tally leaf/stab/directory pages."""
    pool = tree.pool
    leaf_pages = 0
    stab_pages = 0
    directory_pages = 0
    internal_nodes = 0
    stabbed = 0
    max_per_node = 0

    def _walk(page_id):
        nonlocal leaf_pages, stab_pages, directory_pages
        nonlocal internal_nodes, stabbed, max_per_node
        with pool.pinned(page_id) as page:
            if isinstance(page, XRLeafPage):
                leaf_pages += 1
                return []
            internal_nodes += 1
            stabbed += page.sl_count
            chain = StabList(pool, page).page_count()
            stab_pages += chain
            if chain > max_per_node:
                max_per_node = chain
            if page.sl_dir:
                directory_pages += 1
            return list(page.children)
        return []

    if tree.root_id:
        frontier = [tree.root_id]
        while frontier:
            frontier = [c for pid in frontier for c in _walk(pid)]
    return StabListReport(
        nesting=nesting,
        elements=tree.size,
        stabbed_elements=stabbed,
        leaf_pages=leaf_pages,
        stab_pages=stab_pages,
        directory_pages=directory_pages,
        internal_nodes=internal_nodes,
        max_stab_pages_per_node=max_per_node,
    )


@dataclass
class UpdateCostReport:
    """Amortized physical page transfers per update operation."""

    structure: str
    operation: str
    operations: int
    transfers_per_op: float
    misses_per_op: float


def update_cost_study(target_elements=4000, seed=5, page_size=1024,
                      buffer_pages=32):
    """Measure amortized insert/delete I/O for B+-tree vs XR-tree.

    Theorem 1/2 predict XR-tree updates cost a B+-tree update plus a small
    constant for stab-list displacement (C_DP a few I/Os).  A small buffer
    pool keeps the measurements honest.
    """
    rng = Random(seed)
    data = department_dataset(target_elements, seed=seed)
    entries = sorted(data.ancestors + data.descendants,
                     key=lambda e: e.start)
    rng.shuffle(entries)
    reports = []
    for name, factory in (("b+tree", BPlusTree), ("xr-tree", XRTree)):
        context = StorageContext(page_size=page_size,
                                 buffer_pages=buffer_pages)
        tree = factory(context.pool)
        context.reset_stats()
        for entry in entries:
            tree.insert(entry)
        context.pool.flush_all()
        transfers = context.disk.stats.total_transfers
        misses = context.pool.stats.misses
        reports.append(UpdateCostReport(
            name, "insert", len(entries),
            transfers / len(entries), misses / len(entries),
        ))
        context.reset_stats()
        order = [e.start for e in entries]
        rng.shuffle(order)
        for start in order:
            tree.delete(start)
        context.pool.flush_all()
        reports.append(UpdateCostReport(
            name, "delete", len(order),
            context.disk.stats.total_transfers / len(order),
            context.pool.stats.misses / len(order),
        ))
    return reports


@dataclass
class AblationCell:
    setting: str
    elements_scanned: int
    page_misses: int
    stabbed_elements: int = 0


def ablation_split_keys(target_elements=8000, seed=9, page_size=2048):
    """Split-key optimization on/off: count stabbed elements and join cost.

    The optimized separator (``first-right-start - 1`` when the gap allows)
    should never stab *more* elements than the unoptimized one.
    """
    data = department_dataset(target_elements, seed=seed)
    entries = sorted(data.ancestors + data.descendants,
                     key=lambda e: e.start)
    cells = []
    for optimize in (True, False):
        context = StorageContext(page_size=page_size)
        tree = XRTree(context.pool, optimize_split_keys=optimize)
        for entry in entries:  # dynamic inserts exercise split-key choice
            tree.insert(entry)
        report = measure_stab_lists(tree, 0)
        cells.append(AblationCell(
            "optimize=%s" % optimize,
            elements_scanned=0,
            page_misses=0,
            stabbed_elements=report.stabbed_elements,
        ))
    return cells


def ablation_buffer_sizes(target_elements=12000, seed=4,
                          buffer_sizes=(25, 50, 100, 200, 400)):
    """Buffer-pool size sweep (Section 6.1: performance "not essentially
    affected" because probes are ordered and data is scanned at most once)."""
    data = department_dataset(target_elements, seed=seed)
    cells = []
    for pages in buffer_sizes:
        context = StorageContext(buffer_pages=pages)
        outcome = structural_join(
            data.ancestors, data.descendants,
            algorithm="xr-stack", context=context, collect=False,
        )
        cells.append(AblationCell(
            "buffer=%d" % pages,
            elements_scanned=outcome.stats.elements_scanned,
            page_misses=outcome.page_misses,
        ))
    return cells


def join_study(dataset, config):
    """Every merge and indexed join over one unmodified dataset, as an
    ancestor-descendant and as a parent-child join (Section 5.3: the
    ``level`` filter), each from a cold buffer.

    Returns ``{(algorithm, parent_child): JoinOutcome}``; MPMGJN is the
    re-scanning merge Section 2.2 criticizes.
    """
    return {
        (algorithm, parent_child): structural_join(
            dataset.ancestors, dataset.descendants, algorithm=algorithm,
            parent_child=parent_child, context=config.make_context(),
            collect=False,
        )
        for algorithm in ("mpmgjn", "stack-tree", "b+", "xr-stack")
        for parent_child in (False, True)
    }


def scale_study(scales=(4000, 8000, 16000)):
    """The headline cell (employee vs name, Join-A = 5 %) at several data
    scales: DESIGN.md's substitution argument rests on the paper's metrics
    being ratio/ordering-based and therefore scale-stable.

    Returns ``{scale: SweepResult}`` of that one step, NIDX and XR only.
    """
    return {
        scale: run_selectivity_sweep(
            "employee_name", "ancestors",
            ExperimentConfig(target_elements=scale, steps=(0.05,),
                             algorithms=("stack-tree", "xr-stack")),
        )
        for scale in scales
    }
