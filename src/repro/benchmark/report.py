"""Plain-text reporting of benchmark results in the paper's layout."""

from __future__ import annotations

from typing import Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: "Sequence[tuple[str, Sequence[float | str]]]",
    value_format: str = "{:>10.1f}",
) -> str:
    """Render a Table-III-style text table.

    *rows* is a sequence of ``(label, values)`` pairs; numeric values
    are formatted with *value_format*, strings passed through.
    """
    width = max([len(label) for label, _ in rows] + [len("Scenario")])
    header = " " * width + " | " + " | ".join(f"{c:>10}" for c in columns)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for label, values in rows:
        cells = []
        for value in values:
            if isinstance(value, str):
                cells.append(f"{value:>10}")
            else:
                cells.append(value_format.format(value))
        lines.append(f"{label:<{width}} | " + " | ".join(cells))
    lines.append(rule)
    return "\n".join(lines)
