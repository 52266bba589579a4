"""Table V: DRAM storage overhead of the MAC organizations."""

from __future__ import annotations

from typing import List

from repro.core.analysis import StorageRow, storage_overhead_table
from repro.experiments import UNSCALED
from repro.experiments.reporting import format_table, print_banner

SCALES = UNSCALED

CLAIMS = {
    "SGX/Synergy-style MACs lose 12.5 %: 2, 8 and 32 GB of 16, 64 and "
    "256 GB (Table V)":
        lambda rows: [r.sgx_synergy_loss_gb for r in rows] == [2.0, 8.0, 32.0],
    "SafeGuard loses no capacity (Table V)":
        lambda rows: all(r.safeguard_usable_gb == r.baseline_gb for r in rows),
}


def run(capacities_gb=(16, 64, 256)) -> List[StorageRow]:
    return storage_overhead_table(capacities_gb)


def report(rows: List[StorageRow]) -> str:
    print_banner("Table V: usable memory capacity (baseline = ECC DIMM)")
    table = format_table(
        ["Baseline memory", "SGX/Synergy-style MAC", "SafeGuard"],
        [
            (
                f"{r.baseline_gb}GB",
                f"{r.sgx_synergy_usable_gb:g}GB ({r.sgx_synergy_loss_gb:g}GB loss)",
                f"{r.safeguard_usable_gb:g}GB",
            )
            for r in rows
        ],
    )
    print(table)
    return table
