"""Physical-address to DRAM-coordinate mapping (Table II geometry).

Uses the common row:rank:bank:column:offset interleaving so that
consecutive cache lines walk the row buffer (high row locality for
streaming) and banks interleave at row-buffer granularity. Bit fields,
low to high: 6 offset bits (64B lines), 7 column bits (128 lines per
8KB row), 4 bank bits, 1 rank bit, then the row (16 bits; 65536 rows).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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


def packed_coordinates(addresses: np.ndarray) -> np.ndarray:
    """:func:`map_address` over an int64 array, packed for the controller.

    Returns ``(row << 5) | (rank << 4) | bank`` per address — the value
    :class:`~repro.dram.controller.MemoryController` memoizes per
    address (the column plays no part in its timing). The bank is
    XOR-folded over 16 fixed nibble steps, which cover every bit of a
    non-negative int64. Negative addresses raise ``ValueError``.
    """
    if len(addresses) and int(addresses.min()) < 0:
        raise ValueError("negative physical address")
    x = addresses >> 13  # drop the offset and column bits
    bank = x & 15
    x = x >> 4
    rank = x & 1
    x = x >> 1
    fold = x.copy()
    for _ in range(16):
        bank ^= fold & 15
        fold >>= 4
    return ((x & 0xFFFF) << 5) | (rank << 4) | bank
