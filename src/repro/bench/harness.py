"""Core experiment runner: selectivity sweeps over the three algorithms.

One sweep reproduces one paper artifact:

* protocol ``"ancestors"``   → Table 2 / Figure 8(a)(b)
* protocol ``"descendants"`` → Table 3 / Figure 8(c)(d)
* protocol ``"both"``        → Figure 8(e)(f)

Each cell measures a cold-buffer join run and records elements scanned, page
misses and derived elapsed time (disk-time model).
"""

from dataclasses import dataclass, field

from repro.core.api import StorageContext, structural_join
from repro.workloads.datasets import conference_dataset, department_dataset
from repro.workloads.selectivity import (
    vary_ancestor_selectivity,
    vary_both_selectivity,
    vary_descendant_selectivity,
)

#: The paper's selectivity grid (Tables 2-3, Figure 8 x-axes).
SELECTIVITY_STEPS = (0.90, 0.70, 0.55, 0.40, 0.25, 0.15, 0.05, 0.01)

#: Paper Table 1 notation, in the column order every report uses.
ALGORITHM_LABELS = {
    "stack-tree": "NIDX",
    "b+": "B+",
    "xr-stack": "XR",
    "mpmgjn": "MPMGJN",
}

_PROTOCOLS = {
    "ancestors": vary_ancestor_selectivity,
    "descendants": vary_descendant_selectivity,
    "both": vary_both_selectivity,
}

_DATASETS = {
    "employee_name": department_dataset,
    "paper_author": conference_dataset,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment run.

    ``page_size`` defaults to 1 KiB so that, at the default scale, the
    working set is several times larger than the 100-page buffer pool —
    preserving the paper's data >> buffer regime at laptop-friendly sizes.
    """

    target_elements: int = 20000
    page_size: int = 1024
    buffer_pages: int = 100       # fixed in the paper's runs (Section 6.1)
    seed: int = 7
    steps: tuple = SELECTIVITY_STEPS
    algorithms: tuple = ("stack-tree", "b+", "xr-stack")

    def make_context(self):
        return StorageContext(self.page_size, self.buffer_pages)


@dataclass
class SweepCell:
    """One (selectivity, algorithm) measurement."""

    selectivity: float
    algorithm: str
    elements_scanned: int
    page_misses: int
    derived_seconds: float
    pairs: int
    join_a: float
    list_sizes: tuple


@dataclass
class SweepResult:
    """All cells of one sweep, grouped for table/series rendering."""

    dataset: str
    protocol: str
    config: ExperimentConfig
    cells: list = field(default_factory=list)

    def cell(self, selectivity, algorithm):
        for cell in self.cells:
            if cell.selectivity == selectivity and cell.algorithm == algorithm:
                return cell
        raise KeyError((selectivity, algorithm))

    def series(self, algorithm, metric="derived_seconds"):
        """(selectivity, value) points for one algorithm — a Figure 8 line."""
        return [
            (cell.selectivity, getattr(cell, metric))
            for cell in self.cells
            if cell.algorithm == algorithm
        ]

    def column(self, algorithm, metric="elements_scanned"):
        return [value for _, value in self.series(algorithm, metric)]


def run_selectivity_sweep(dataset="employee_name", protocol="ancestors",
                          config=None, base_dataset=None):
    """Run one full sweep; returns a :class:`SweepResult`.

    ``base_dataset`` lets callers reuse an already-generated dataset (the
    generation cost dominates at large scales).
    """
    config = config or ExperimentConfig()
    if protocol not in _PROTOCOLS:
        raise ValueError("unknown protocol %r" % protocol)
    if base_dataset is None:
        base_dataset = _DATASETS[dataset](config.target_elements,
                                          seed=config.seed)
    derive = _PROTOCOLS[protocol]
    result = SweepResult(dataset, protocol, config)
    for step in config.steps:
        workload = derive(base_dataset, step, seed=config.seed)
        for algorithm in config.algorithms:
            context = config.make_context()
            outcome = structural_join(
                workload.ancestors, workload.descendants,
                algorithm=algorithm, context=context, collect=False,
            )
            result.cells.append(SweepCell(
                selectivity=step,
                algorithm=algorithm,
                elements_scanned=outcome.stats.elements_scanned,
                page_misses=outcome.page_misses,
                derived_seconds=outcome.derived_seconds,
                pairs=outcome.stats.pairs,
                join_a=workload.join_a,
                list_sizes=(len(workload.ancestors),
                            len(workload.descendants)),
            ))
    return result
