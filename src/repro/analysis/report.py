"""ASCII table rendering for the benchmark harness.

Each figure's bench prints the same rows/series the paper plots; these
helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_size"]


def format_size(nbytes: int) -> str:
    """Human-readable byte size (1 KiB units, as on the paper's axes)."""
    if nbytes >= 1 << 20:
        v = nbytes / (1 << 20)
        return f"{v:g}M"
    if nbytes >= 1 << 10:
        v = nbytes / (1 << 10)
        return f"{v:g}K"
    return str(nbytes)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width ASCII table."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in srows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
