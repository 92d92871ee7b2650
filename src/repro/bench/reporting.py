"""Monospace table rendering for the experiment drivers."""

from __future__ import annotations

from typing import Sequence


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    notes: str | None = None,
) -> str:
    """Render a paper-style monospace table."""
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[index]) for row in formatted))
        if formatted
        else len(str(header))
        for index, header in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)

