"""Module geometry for the two evaluated configurations (Section III-B).

- x8 SECDED: single-channel 16GB module, 2 ranks of 9 x8 chips (8 data +
  1 ECC). Each 8Gb chip: 16 banks x 65536 rows x 1024 column addresses x
  8 bits.
- x4 Chipkill: single-channel 16GB module, 2 ranks of 18 x4 chips (16
  data + 2 ECC). Each 4Gb chip: 16 banks x 65536 rows x 1024 column
  addresses x 4 bits.

A cache line occupies 8 consecutive column addresses (the burst) of every
chip in a rank, so the line index of a column address is ``col // 8``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

from repro.core import registry

#: Dimensions must be below this: the Monte-Carlo replay decodes each
#: ``randrange`` draw from one 32-bit word, and a wider draw takes several.
_DIMENSION_LIMIT = 1 << 32


@dataclass(frozen=True)
class ModuleGeometry:
    """Physical organization of one DIMM."""

    name: str
    ranks: int
    chips_per_rank: int  #: including ECC chip(s)
    data_chips_per_rank: int
    bits_per_chip: int  #: chip output width (x4 / x8)
    banks: int
    rows: int
    cols: int  #: column addresses per row
    beats_per_line: int = 8

    def __post_init__(self) -> None:
        for spec in fields(self):
            if spec.name == "name":
                continue
            value = operator.index(getattr(self, spec.name))
            if not 1 <= value < _DIMENSION_LIMIT:
                raise ValueError(
                    f"{spec.name} must be at least 1 and below 2**32, got {value}"
                )
            object.__setattr__(self, spec.name, value)
        if self.data_chips_per_rank > self.chips_per_rank:
            raise ValueError(
                f"data_chips_per_rank ({self.data_chips_per_rank}) exceeds "
                f"chips_per_rank ({self.chips_per_rank})"
            )

    @property
    def ecc_chips_per_rank(self) -> int:
        return self.chips_per_rank - self.data_chips_per_rank

    @property
    def total_chips(self) -> int:
        return self.ranks * self.chips_per_rank

    @property
    def lines_per_rank(self) -> int:
        return self.banks * self.rows * (self.cols // self.beats_per_line)

    @property
    def data_bytes(self) -> int:
        per_chip_bits = self.banks * self.rows * self.cols * self.bits_per_chip
        return self.ranks * self.data_chips_per_rank * per_chip_bits // 8

    def is_ecc_chip(self, chip: int) -> bool:
        """Chips are indexed with data chips first, ECC chip(s) last."""
        return chip >= self.data_chips_per_rank


#: 16GB x8 ECC DIMM (SECDED / SafeGuard-SECDED evaluations, Figure 6).
X8_SECDED_16GB = ModuleGeometry(
    name="x8-secded-16gb",
    ranks=2,
    chips_per_rank=9,
    data_chips_per_rank=8,
    bits_per_chip=8,
    banks=16,
    rows=65536,
    cols=1024,
)

#: 16GB x4 Chipkill DIMM (Chipkill / SafeGuard-Chipkill, Figure 10).
X4_CHIPKILL_16GB = ModuleGeometry(
    name="x4-chipkill-16gb",
    ranks=2,
    chips_per_rank=18,
    data_chips_per_rank=16,
    bits_per_chip=4,
    banks=16,
    rows=65536,
    cols=1024,
)


def geometry_for(scheme_name: str) -> ModuleGeometry:
    """The module a registered scheme's reliability is simulated on.

    Chipkill organizations (the registry's ``chipkill`` flag) run on the
    x4 module of Figure 10, every other scheme on the x8 module of
    Figure 6. Unknown names raise ``KeyError`` with the registered ones.
    """
    if registry.scheme(scheme_name).chipkill:
        return X4_CHIPKILL_16GB
    return X8_SECDED_16GB
