"""Report rendering helpers.

The experiments print paper-style tables; this module provides the tiny
fixed-width table renderer they share, plus machine-readable dict
conversion for programmatic consumers.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Any, Dict, Iterable, List, Mapping, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
) -> str:
    """Render a fixed-width text table."""
    cells = [[str(cell) for cell in row] for row in rows]
    # A cell missing from a short row counts as empty.
    widths = [
        max(map(len, column))
        for column in zip_longest(headers, *cells, fillvalue="")
    ]

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(map(str.ljust, row, widths)).rstrip()

    lines = [title] if title else []
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(map(fmt, cells))
    return "\n".join(lines)


def render_counts(
    counts: Mapping[str, Any],
    title: str = "",
    headers: Sequence[str] = ("kind", "count"),
) -> str:
    """Render a ``{label: count}`` mapping as a two-column table."""
    return render_table(headers, list(counts.items()), title=title)


def percentage(value: float, digits: int = 2) -> str:
    """Format a ratio as a percent string (paper-style)."""
    return f"{value * 100:.{digits}f}%"


def rows_to_dicts(
    headers: Sequence[str], rows: Iterable[Sequence[Any]]
) -> List[Dict[str, Any]]:
    """Machine-readable form of a rendered table."""
    return [dict(zip(headers, row)) for row in rows]
