"""ASCII rendering of Figure 8-style charts.

The paper's Figure 8 plots elapsed time against join selectivity for the
three algorithms.  With no plotting stack available offline, the harness
renders the same series as terminal charts: selectivity on the x axis
(descending, as in the paper), the metric on the y axis, one glyph per
algorithm, shared scale.
"""

from repro.bench.harness import ALGORITHM_LABELS

_GLYPHS = {"stack-tree": "N", "b+": "B", "xr-stack": "X", "mpmgjn": "M"}


def ascii_chart(result, metric="derived_seconds", width=64, height=16,
                title=None):
    """Render one sweep as a multi-series ASCII line chart.

    ``result`` is a :class:`~repro.bench.harness.SweepResult`; the x axis is
    the selectivity grid in sweep order (high to low, matching the paper's
    figures), the y axis the chosen metric.
    """
    algorithms = [a for a in ALGORITHM_LABELS
                  if any(c.algorithm == a for c in result.cells)]
    steps = list(result.config.steps)
    series = {
        algorithm: [getattr(result.cell(step, algorithm), metric)
                    for step in steps]
        for algorithm in algorithms
    }
    top = max(max(values) for values in series.values())
    if top <= 0:
        top = 1.0
    grid = [[" "] * width for _ in range(height)]
    for column_index, step in enumerate(steps):
        x = _x_position(column_index, len(steps), width)
        for algorithm in algorithms:
            value = series[algorithm][column_index]
            y = height - 1 - int(round((value / top) * (height - 1)))
            glyph = _GLYPHS[algorithm]
            if grid[y][x] == " ":
                grid[y][x] = glyph
            else:
                grid[y][x] = "*"  # overlapping points
    lines = []
    if title:
        lines.append(title)
    y_label = "%-10s" % _format_value(top, metric)
    for row_index, row in enumerate(grid):
        prefix = y_label if row_index == 0 else " " * 10
        if row_index == height - 1:
            prefix = "%-10s" % _format_value(0, metric)
        lines.append(prefix + "|" + "".join(row))
    axis = " " * 10 + "+" + "-" * width
    lines.append(axis)
    ticks = [" "] * (width + 14)  # slack so edge labels are not clipped
    for column_index, step in enumerate(steps):
        x = _x_position(column_index, len(steps), width) + 11
        label = "%d%%" % round(step * 100)
        for offset, char in enumerate(label):
            position = x + offset - len(label) // 2
            if 0 <= position < len(ticks):
                ticks[position] = char
    lines.append("".join(ticks))
    legend = "  ".join("%s=%s" % (_GLYPHS[a], ALGORITHM_LABELS[a])
                       for a in algorithms)
    lines.append(" " * 11 + legend + "   (* = overlap)")
    return "\n".join(lines)


def _x_position(column_index, columns, width):
    if columns == 1:
        return width // 2
    return int(round(column_index * (width - 1) / (columns - 1)))


def _format_value(value, metric):
    if "seconds" in metric:
        return "%.2fs" % value
    return "%d" % round(value)
