"""Benchmark harness regenerating every table and figure of Section 6,
plus the stab-list size study (Section 3.3), the update-cost study
(Theorems 1-2) and design ablations, and asserting the paper's shapes on
what it measured (:mod:`repro.bench.shapes`).

Run everything from the command line; the exit status is the gate::

    python -m repro.bench --scale 20000 --out results.md
"""

from repro.bench.harness import (
    ALGORITHM_LABELS,
    SELECTIVITY_STEPS,
    ExperimentConfig,
    SweepResult,
    run_selectivity_sweep,
)
from repro.bench.report import format_elapsed_table, format_scanned_table
from repro.bench.studies import (
    ablation_buffer_sizes,
    ablation_split_keys,
    stab_list_study,
    update_cost_study,
)

__all__ = [
    "ALGORITHM_LABELS",
    "ExperimentConfig",
    "SELECTIVITY_STEPS",
    "SweepResult",
    "ablation_buffer_sizes",
    "ablation_split_keys",
    "format_elapsed_table",
    "format_scanned_table",
    "run_selectivity_sweep",
    "stab_list_study",
    "update_cost_study",
]
