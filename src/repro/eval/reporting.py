"""Plain-text rendering of experiment results."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table (no external dependencies)."""
    materialized: List[List[str]] = [[str(cell) for cell in row]
                                     for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def _line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    out = [_line(headers), _line(["-" * width for width in widths])]
    out.extend(_line(row) for row in materialized)
    return "\n".join(out)


def render_figure6(result) -> str:
    """Render a Figure 6 result as an aligned text table."""
    header = (f"Figure 6 ({result.lifeguard}, scale={result.scale.value}): "
              "execution time normalized to 1-thread unmonitored run")
    table = format_table(
        ["benchmark", "threads", "no_monitoring", "timesliced", "parallel",
         "timesliced/parallel"],
        result.rows(),
    )
    return f"{header}\n{table}"


def render_figure7(result) -> str:
    """Render a Figure 7 result as an aligned text table."""
    header = (f"Figure 7 ({result.lifeguard}, scale={result.scale.value}): "
              "parallel-monitoring slowdown breakdown "
              "(stacked components sum to the slowdown)")
    table = format_table(
        ["benchmark", "threads", "slowdown", "useful", "wait_dependence",
         "wait_application"],
        result.rows(),
    )
    return f"{header}\n{table}"


def render_figure8(result) -> str:
    """Render a Figure 8 result as an aligned text table."""
    header = (f"Figure 8 ({result.lifeguard}, {result.threads} threads, "
              f"scale={result.scale.value}): slowdown vs no monitoring")
    table = format_table(
        ["benchmark", "not_accel", "accel_limited", "accel_aggressive",
         "accel_speedup"],
        result.rows(),
    )
    return f"{header}\n{table}"


def render_mapping(title: str, mapping: dict) -> str:
    """Render a flat metric -> value mapping as a titled table."""
    rows = [(key, value) for key, value in mapping.items()]
    return f"{title}\n{format_table(['metric', 'value'], rows)}"


def render_headline(summary: dict) -> str:
    """Render a :func:`~repro.eval.experiments.headline_summary` as a
    metric/value table, nested claims flattened to ``outer.inner``."""
    rows = []
    for key, value in summary.items():
        if isinstance(value, dict):
            rows.extend((f"{key}.{inner}", inner_value)
                        for inner, inner_value in value.items())
        else:
            rows.append((key, value))
    return format_table(["metric", "value"], rows)
