"""Parity primitives: pin-column parity and chip-wise parity.

- *Column parity* (Section IV-C, Figure 5): treat the 8 bits each data-bus
  pin contributes across the burst as a symbol; the 8-bit column parity is
  the XOR of the 64 pin symbols. A single pin (column) failure corrupts
  exactly one symbol, which the parity can reconstruct once the failing
  pin is identified (by iterating candidates under MAC verification).
- *Chip-wise parity* (Section V, Figure 8b): in the Chipkill organization
  each of the 17 non-parity chips contributes 32 bits per line (16 data
  chips + the MAC chip); the 18th chip stores their 32-bit XOR. A whole
  failed chip is reconstructed from the other 17.
"""

from __future__ import annotations

from typing import List

from repro.ecc import kernels
from repro.utils.bits import (
    extract_chip_bits,
    extract_pin_symbols,
    insert_chip_bits,
    insert_pin_symbol,
)

N_DATA_PINS = 64
PIN_SYMBOL_BITS = 8

N_X4_DATA_CHIPS = 16
X4_CHIP_BITS = 4
CHIP_CONTRIBUTION_BITS = 32  #: 4 bits x 8 beats per line


def column_parity(line: int) -> int:
    """8-bit XOR of the 64 pin symbols of a 512-bit line."""
    if kernels.kernel_mode() == "fast":
        # Bit ``b`` of the XOR of all pin symbols is the parity of beat
        # word ``b`` — no symbol extraction needed.
        parity = 0
        for beat in range(PIN_SYMBOL_BITS):
            word = (line >> (beat * N_DATA_PINS)) & ((1 << N_DATA_PINS) - 1)
            parity |= (word.bit_count() & 1) << beat
        return parity
    parity = 0
    for symbol in extract_pin_symbols(line, N_DATA_PINS):
        parity ^= symbol
    return parity


def recover_pin(line: int, pin: int, parity: int) -> int:
    """Reconstruct pin ``pin``'s symbol from the column parity.

    Returns the repaired line assuming the failure is confined to that pin
    (the caller verifies the guess with the MAC).
    """
    if kernels.kernel_mode() == "fast":
        # XOR of all *other* symbols = full column parity with the target
        # pin's own symbol cancelled back out.
        own = 0
        for beat in range(PIN_SYMBOL_BITS):
            own |= ((line >> (beat * N_DATA_PINS + pin)) & 1) << beat
        recovered = parity ^ column_parity(line) ^ own
        return insert_pin_symbol(line, pin, recovered, N_DATA_PINS)
    symbols = extract_pin_symbols(line, N_DATA_PINS)
    recovered = parity
    for p, symbol in enumerate(symbols):
        if p != pin:
            recovered ^= symbol
    return insert_pin_symbol(line, pin, recovered, N_DATA_PINS)


def chip_contributions(line: int, mac32: int) -> List[int]:
    """The 32-bit per-line contributions of the 17 non-parity chips.

    Chips 0..15 are the data chips (4 bits per beat out of the 512-bit
    line); chip 16 is the MAC chip.
    """
    contributions = [
        extract_chip_bits(line, chip, X4_CHIP_BITS, N_X4_DATA_CHIPS)
        for chip in range(N_X4_DATA_CHIPS)
    ]
    contributions.append(mac32 & 0xFFFFFFFF)
    return contributions


def chip_parity(line: int, mac32: int) -> int:
    """32-bit chip-wise parity across the 16 data chips and the MAC chip."""
    parity = 0
    for contribution in chip_contributions(line, mac32):
        parity ^= contribution
    return parity


def recover_chip(line: int, mac32: int, parity: int, chip: int) -> "tuple[int, int]":
    """Reconstruct chip ``chip`` (0..16) from the chip-wise parity.

    Returns ``(line, mac32)`` with the target chip's contribution replaced
    by the parity-derived value. Chip 16 is the MAC chip: repairing it
    rewrites the MAC rather than the data.
    """
    contributions = chip_contributions(line, mac32)
    recovered = parity
    for c, contribution in enumerate(contributions):
        if c != chip:
            recovered ^= contribution
    if chip == N_X4_DATA_CHIPS:
        return line, recovered
    line = insert_chip_bits(line, chip, recovered, X4_CHIP_BITS, N_X4_DATA_CHIPS)
    return line, mac32
