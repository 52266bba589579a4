"""Fault instances and address-overlap logic.

A :class:`FaultInstance` records where a fault landed (chip, rank, bank,
row, column, bit position) with ``None`` marking wildcard ("the whole
range") coordinates, following FaultSim's range-based representation.

Two faults interact when their address ranges intersect — i.e. some
(rank, bank, row, column) is covered by both — because the codeword at
that address then sees damage from both. Overlap can be tested at *word*
granularity (one column address; the SECDED codeword) or at *line*
granularity (8 consecutive column addresses; SafeGuard's codeword).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.faultsim.fit import Scope
from repro.faultsim.geometry import ModuleGeometry


class Pattern:
    """How a fault damages each affected word (per-chip footprint)."""

    SINGLE_BIT = "single_bit"  #: 1 bit in exactly one word
    VERTICAL = "vertical"  #: 1 bit per word (pin/bit-line column pattern)
    CHIP_WIDE = "chip_wide"  #: the chip's whole contribution per word


_SCOPE_PATTERN = {
    Scope.BIT: Pattern.SINGLE_BIT,
    Scope.COLUMN: Pattern.VERTICAL,
    Scope.WORD: Pattern.CHIP_WIDE,
    Scope.ROW: Pattern.CHIP_WIDE,
    Scope.BANK: Pattern.CHIP_WIDE,
    Scope.MULTIBANK: Pattern.CHIP_WIDE,
    Scope.MULTIRANK: Pattern.CHIP_WIDE,
}


@dataclass(frozen=True)
class FaultInstance:
    """One placed fault. ``None`` coordinates are wildcards."""

    scope: Scope
    transient: bool
    time_hours: float
    chip: int  #: chip index within a rank
    rank: Optional[int]  #: None for multirank faults
    bank: Optional[int]
    row: Optional[int]
    col: Optional[int]
    bit: Optional[int]  #: bit position within the chip's output width

    @property
    def pattern(self) -> str:
        """Per-word damage footprint of this fault."""
        return _SCOPE_PATTERN[self.scope]

    # -- overlap -----------------------------------------------------------------

    def overlaps(self, other: "FaultInstance", line_granularity: bool) -> bool:
        """True iff some address is damaged by both faults.

        With ``line_granularity`` the column coordinates are compared at
        cache-line resolution (``col // 8``), since SafeGuard's codeword
        spans the whole burst.
        """
        if not _wild_eq(self.rank, other.rank):
            return False
        if not _wild_eq(self.bank, other.bank):
            return False
        if not _wild_eq(self.row, other.row):
            return False
        col_a, col_b = self.col, other.col
        if line_granularity:
            col_a = None if col_a is None else col_a // 8
            col_b = None if col_b is None else col_b // 8
        return _wild_eq(col_a, col_b)


def _wild_eq(a: Optional[int], b: Optional[int]) -> bool:
    return a is None or b is None or a == b


def place_fault(
    scope: Scope,
    transient: bool,
    time_hours: float,
    chip: int,
    geometry: ModuleGeometry,
    rng: random.Random,
) -> FaultInstance:
    """Sample a concrete location for a fault of the given scope."""
    rank = rng.randrange(geometry.ranks)
    bank = rng.randrange(geometry.banks)
    row = rng.randrange(geometry.rows)
    col = rng.randrange(geometry.cols)
    bit = rng.randrange(geometry.bits_per_chip)
    if scope is Scope.BIT:
        return FaultInstance(scope, transient, time_hours, chip, rank, bank, row, col, bit)
    if scope is Scope.COLUMN:
        # Pin / bit-line failure: one bit position, all rows and columns of
        # a bank — the vertical per-line pattern of Figure 4.
        return FaultInstance(scope, transient, time_hours, chip, rank, bank, None, None, bit)
    if scope is Scope.WORD:
        return FaultInstance(scope, transient, time_hours, chip, rank, bank, row, col, None)
    if scope is Scope.ROW:
        return FaultInstance(scope, transient, time_hours, chip, rank, bank, row, None, None)
    if scope is Scope.BANK:
        return FaultInstance(scope, transient, time_hours, chip, rank, bank, None, None, None)
    if scope is Scope.MULTIBANK:
        return FaultInstance(scope, transient, time_hours, chip, rank, None, None, None, None)
    if scope is Scope.MULTIRANK:
        return FaultInstance(scope, transient, time_hours, chip, None, None, None, None, None)
    raise ValueError(f"unknown scope {scope}")
