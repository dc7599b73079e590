"""Rendering of sweep results in the paper's table/figure formats."""

from repro.bench.harness import ALGORITHM_LABELS
from repro.bench.paper_numbers import PAPER_TABLES


def _percent(value):
    return "%d%%" % round(value * 100)


def format_scanned_table(result, paper_key=None):
    """Render a Table 2/3-style grid: elements scanned (in thousands).

    With ``paper_key`` the paper's reported thousands are interleaved for a
    side-by-side shape comparison.
    """
    algorithms = [a for a in ALGORITHM_LABELS
                  if any(c.algorithm == a for c in result.cells)]
    header = ["Join-%"] + [ALGORITHM_LABELS[a] for a in algorithms]
    paper = PAPER_TABLES.get(paper_key, {})
    if paper:
        header += ["paper:" + ALGORITHM_LABELS[a] for a in algorithms if
                   ALGORITHM_LABELS[a] in next(iter(paper.values()))]
    lines = ["\t".join(header)]
    for step in result.config.steps:
        row = [_percent(step)]
        for algorithm in algorithms:
            cell = result.cell(step, algorithm)
            row.append(_thousands(cell.elements_scanned))
        if paper:
            reported = paper.get(step, {})
            for algorithm in algorithms:
                label = ALGORITHM_LABELS[algorithm]
                if label in reported:
                    row.append(str(reported[label]))
        lines.append("\t".join(row))
    return "\n".join(lines)


def format_elapsed_table(result):
    """Render a Figure 8-style grid: derived elapsed seconds per algorithm."""
    algorithms = [a for a in ALGORITHM_LABELS
                  if any(c.algorithm == a for c in result.cells)]
    labels = [ALGORITHM_LABELS[a] for a in algorithms]
    lines = ["\t".join(["Join-%"] + labels
                       + ["misses:" + label for label in labels])]
    for step in result.config.steps:
        row = [_percent(step)]
        for algorithm in algorithms:
            row.append("%.3f" % result.cell(step, algorithm).derived_seconds)
        for algorithm in algorithms:
            row.append(str(result.cell(step, algorithm).page_misses))
        lines.append("\t".join(row))
    return "\n".join(lines)


def format_series(result, metric="derived_seconds"):
    """Figure-8 line series, one per algorithm: ``label: [(x, y), ...]``."""
    lines = []
    for algorithm in ALGORITHM_LABELS:
        series = result.series(algorithm, metric)
        if series:
            points = ", ".join("(%d%%, %.3f)" % (round(x * 100), y)
                               for x, y in series)
            lines.append("%s: %s" % (ALGORITHM_LABELS[algorithm], points))
    return "\n".join(lines)


def _thousands(value):
    if value >= 1000:
        return "%.1fk" % (value / 1000.0)
    return str(value)
