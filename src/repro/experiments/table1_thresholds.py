"""Table I / Figure 1a: the Row-Hammer threshold over time."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments import UNSCALED
from repro.experiments.reporting import format_table, print_banner
from repro.rowhammer.thresholds import RH_THRESHOLDS, ThresholdEntry, reduction_factor

SCALES = UNSCALED

CLAIMS = {
    "DDR3 (2014) flips at 139K activations (Table I)":
        lambda entries: entries[0].threshold == 139_000,
    "LPDDR4 (2020) flips at 4.8K activations (Table I)":
        lambda entries: entries[-1].threshold == 4_800,
}


def run() -> List[ThresholdEntry]:
    return list(RH_THRESHOLDS)


def report(entries: Optional[List[ThresholdEntry]] = None) -> str:
    entries = entries or run()
    print_banner("Table I: Row-Hammer Threshold Over Time")
    rows: List[Tuple[str, str]] = []
    for e in entries:
        value = f"{e.threshold_low:,}"
        if e.threshold_high:
            value += f" - {e.threshold_high:,}"
        rows.append((e.generation, value))
    table = format_table(["DRAM Generation", "RH-Threshold"], rows)
    print(table)
    print(
        f"\nFigure 1a: threshold reduced ~{reduction_factor():.0f}x "
        "(139K in 2014 -> 4.8K in 2020)"
    )
    return table
