"""Regenerate every paper artifact from the command line.

Usage::

    python -m repro.bench --scale 20000 --out results.md

Writes a markdown report with one section per table/figure, measured values
side by side with the paper's reported numbers (tables), and under each
artefact one ``shape ✓/✗`` line per row of :data:`repro.bench.shapes.SHAPES`.
Exits 1 if a shape does not hold.
"""

import argparse
import sys
import time

from repro.bench.figures import ascii_chart
from repro.bench.harness import (
    ALGORITHM_LABELS,
    ExperimentConfig,
    run_selectivity_sweep,
)
from repro.bench.report import (
    format_elapsed_table,
    format_scanned_table,
    format_series,
)
from repro.bench.shapes import SHAPES
from repro.bench.studies import (
    ablation_buffer_sizes,
    ablation_split_keys,
    join_study,
    scale_study,
    stab_list_study,
    update_cost_study,
)
from repro.workloads.datasets import conference_dataset, department_dataset

_SWEEPS = [
    ("T2a / F8a", "employee_name", "ancestors", "table2a", "fig8a"),
    ("T2b / F8b", "paper_author", "ancestors", "table2b", "fig8b"),
    ("T3a / F8c", "employee_name", "descendants", "table3a", "fig8c"),
    ("T3b / F8d", "paper_author", "descendants", "table3b", "fig8d"),
    ("F8e", "employee_name", "both", None, "fig8e"),
    ("F8f", "paper_author", "both", None, "fig8f"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("--scale", type=int, default=20000,
                        help="approximate generated elements per document")
    parser.add_argument("--out", default=None,
                        help="write the markdown report here (default stdout)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-studies", action="store_true",
                        help="only run the six sweeps and the JOIN section")
    args = parser.parse_args(argv)

    config = ExperimentConfig(target_elements=args.scale, seed=args.seed)
    sections = []
    datasets = {
        "employee_name": department_dataset(args.scale, seed=args.seed),
        "paper_author": conference_dataset(args.scale, seed=args.seed),
    }
    for title, dataset, protocol, table_key, figure_key in _SWEEPS:
        started = time.perf_counter()
        result = run_selectivity_sweep(dataset, protocol, config,
                                       base_dataset=datasets[dataset])
        took = time.perf_counter() - started
        body = ["## %s — %s, vary %s" % (title, dataset, protocol), ""]
        if table_key:
            body += ["Elements scanned (ours, with paper thousands):", "",
                     "```", format_scanned_table(result, table_key), "```", ""]
            body += _shape_lines(table_key, result) + [""]
        body += ["Derived elapsed time and page misses:", "",
                 "```", format_elapsed_table(result), "```", "",
                 "Series (for plotting):", "",
                 "```", format_series(result), "```", "",
                 "```",
                 ascii_chart(result,
                             title="Figure 8 analogue (%s)" % figure_key),
                 "```", ""]
        body += _shape_lines(figure_key, result)
        body += ["", "_sweep wall time: %.1fs_" % took]
        sections.append("\n".join(body))
        print("finished %s in %.1fs" % (title, took), file=sys.stderr)

    sections.append(_join_section(datasets["employee_name"], config))
    if not args.skip_studies:
        sections.append(_studies_section())

    report = "# XR-tree reproduction results (scale=%d)\n\n%s\n" % (
        args.scale, "\n\n".join(sections)
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        print(report)
    failed = [line for line in report.splitlines()
              if line.startswith("- shape ✗")]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def _shape_lines(artefact, measurement):
    return ["- shape %s %s: %s" % ("✓" if holds(measurement) else "✗",
                                   artefact, description)
            for description, holds in SHAPES[artefact].items()]


def _join_section(dataset, config):
    outcomes = join_study(dataset, config)
    lines = ["## JOIN — merge baselines and parent-child joins "
             "(Sections 2.2, 5.3), employee_name", ""]
    for (algorithm, parent_child), outcome in outcomes.items():
        lines.append(
            "- %s %s: %d pairs, %d scanned, %d misses"
            % (ALGORITHM_LABELS[algorithm], "parent-child" if parent_child
               else "ancestor-descendant", outcome.pair_count,
               outcome.stats.elements_scanned, outcome.page_misses)
        )
    return "\n".join(lines + [""] + _shape_lines("JOIN", outcomes))


def _studies_section():
    lines = ["## S33 — stab-list size study (Section 3.3)", ""]
    stab_lists = {profile: stab_list_study(profile=profile)
                  for profile in ("department", "auction")}
    for profile, reports in stab_lists.items():
        lines.append("Profile: %s" % profile)
        for report in reports:
            lines.append(
                "- nesting=%d: %d elements, %d stabbed, stab/leaf pages = "
                "%d/%d (%.1f%%), avg %.2f max %d pages per node, "
                "%d directories"
                % (report.nesting, report.elements, report.stabbed_elements,
                   report.stab_pages, report.leaf_pages,
                   100 * report.stab_to_leaf_ratio,
                   report.avg_stab_pages_per_node,
                   report.max_stab_pages_per_node, report.directory_pages)
            )
        lines.append("")
    lines += _shape_lines("S33", stab_lists)
    lines += ["", "## UPD — amortized update cost (Theorems 1-2)", ""]
    update_costs = update_cost_study()
    for report in update_costs:
        lines.append(
            "- %s %s: %.3f transfers/op, %.3f misses/op over %d ops"
            % (report.structure, report.operation, report.transfers_per_op,
               report.misses_per_op, report.operations)
        )
    lines += [""] + _shape_lines("UPD", update_costs)
    lines += ["", "## ABL — ablations", ""]
    ablation = {"split keys": ablation_split_keys(),
                "buffer": ablation_buffer_sizes()}
    for cell in ablation["split keys"]:
        lines.append("- split keys %s: %d stabbed elements"
                     % (cell.setting, cell.stabbed_elements))
    for cell in ablation["buffer"]:
        lines.append("- %s: %d misses, %d scanned"
                     % (cell.setting, cell.page_misses,
                        cell.elements_scanned))
    lines += [""] + _shape_lines("ABL", ablation)
    lines += ["", "## SCALE — scale stability of the headline cell "
              "(employee_name, Join-A = 5 %)", ""]
    scales = scale_study()
    for scale, sweep in scales.items():
        nidx, xr = sweep.cells
        lines.append(
            "- scale %d: NIDX scans %d (%d misses), XR scans %d (%d misses), "
            "scan ratio %.1fx"
            % (scale, nidx.elements_scanned, nidx.page_misses,
               xr.elements_scanned, xr.page_misses,
               nidx.elements_scanned / max(1, xr.elements_scanned))
        )
    return "\n".join(lines + [""] + _shape_lines("SCALE", scales))


if __name__ == "__main__":
    sys.exit(main())
