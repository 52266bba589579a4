"""Physical-address to DRAM-coordinate mapping (Table II geometry).

Uses the common row:rank:bank:column:offset interleaving so that
consecutive cache lines walk the row buffer (high row locality for
streaming) and banks interleave at row-buffer granularity. Bit fields,
low to high: 6 offset bits (64B lines), 7 column bits (128 lines per
8KB row), 4 bank bits, 1 rank bit, then the row (16 bits; 65536 rows).
"""

from __future__ import annotations

from typing import Tuple


def map_address(address: int) -> Tuple[int, int, int, int]:
    """Physical byte address -> ``(rank, bank, row, column)``.

    The bank index is XOR-hashed with the folded row bits (permutation-
    based page interleaving, as real controllers do) so that strided
    streams from different address regions do not march across banks in
    lockstep. The hash is injective given (row, bank), so no two
    addresses alias. A negative address has no coordinates (and its
    sign bits would never fold away), so it raises ``ValueError``.
    """
    if address < 0:
        raise ValueError(f"negative physical address {address}")
    line = address >> 6
    x = line >> 7
    bank = x & 15
    x >>= 4
    rank = x & 1
    x >>= 1
    h = 0
    fold = x  # row plus any higher (region/core) bits
    while fold:
        h ^= fold & 15
        fold >>= 4
    return rank, bank ^ h, x & 0xFFFF, line & 127
