"""Small text-table helpers shared by the experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.4f}".rstrip("0").rstrip(".")
    return str(cell)


def wilson_interval(result) -> str:
    """A reliability result's 95 % Wilson interval on its final failure
    probability, as ``[low%, high%]``."""
    low, high = result.confidence_interval()
    return f"[{low:.4%}, {high:.4%}]"


def print_banner(title: str) -> None:
    print()
    print("=" * max(30, len(title)))
    print(title)
    print("=" * max(30, len(title)))


def to_csv(path: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a table as CSV (for external plotting of the figure series)."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))
