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
- *Syndrome repairs*: a pin, an x4 chip and an x8 chip are each a *lane*
  of ``width`` adjacent pins in every beat, and the stored parity is the
  XOR of every lane's contribution (and, for chips, the MAC's). The
  stored parity XOR the parity recomputed from the read line is the
  *syndrome*: what the one failed lane is off by. So the repair that
  assumes lane ``c`` failed is the read line with the syndrome XORed onto
  lane ``c``, and the repair that assumes the MAC chip failed is the
  stored MAC XOR the syndrome. One syndrome builds every candidate of a
  correction search; :func:`recover_pin` and :func:`recover_chip` are the
  one-candidate case.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ecc import kernels
from repro.utils.bits import extract_chip_bits, extract_pin_symbols

N_DATA_PINS = 64
PIN_SYMBOL_BITS = 8

N_X4_DATA_CHIPS = 16
X4_CHIP_BITS = 4
CHIP_CONTRIBUTION_BITS = 32  #: 4 bits x 8 beats per line

X8_CHIP_BITS = 8  #: Synergy's x8 layout: 8 data chips of 8 bits per beat


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


def lane_mask(value: int, width: int) -> int:
    """``value`` (``width`` bits per beat, beat 0 lowest) laid on pins
    ``[0, width)`` of every beat.

    Shifted left by ``c * width`` it lies on lane ``c``: pin ``c`` (width
    1), x4 chip ``c`` (width 4) or x8 chip ``c`` (width 8).
    """
    chunk = (1 << width) - 1
    mask = 0
    for beat in range(PIN_SYMBOL_BITS):
        mask |= ((value >> (beat * width)) & chunk) << (beat * N_DATA_PINS)
    return mask


def pin_syndrome(line: int, parity: int) -> int:
    """The column-parity syndrome of ``line``, laid on pin 0 of every beat.

    The repair that assumes pin ``p`` alone failed is
    ``line ^ (pin_syndrome(line, parity) << p)``.
    """
    return lane_mask(parity ^ column_parity(line), 1)


def recover_pin(line: int, pin: int, parity: int) -> int:
    """Reconstruct pin ``pin``'s symbol from the column parity.

    Returns the repaired line assuming the failure is confined to that pin
    (the caller verifies the guess with the MAC).
    """
    return line ^ (pin_syndrome(line, parity) << pin)


def chip_contributions(line: int, mac: int, width: int = X4_CHIP_BITS) -> List[int]:
    """The per-line contributions of the non-parity chips.

    Chips ``0 .. 64/width - 1`` are the data chips (``width`` bits per beat
    out of the 512-bit line: the x4 layout's 16 chips by default, or the
    x8 layout's 8); the last is the MAC chip.
    """
    n_chips = N_DATA_PINS // width
    contributions = [
        extract_chip_bits(line, chip, width, n_chips) for chip in range(n_chips)
    ]
    contributions.append(mac & ((1 << (PIN_SYMBOL_BITS * width)) - 1))
    return contributions


def chip_parity(line: int, mac: int, width: int = X4_CHIP_BITS) -> int:
    """Chip-wise parity across the data chips and the MAC chip (32 bits
    for the x4 layout)."""
    parity = 0
    for contribution in chip_contributions(line, mac, width):
        parity ^= contribution
    return parity


def chip_syndrome(line: int, mac: int, parity: int, width: int = X4_CHIP_BITS) -> int:
    """The stored chip parity XOR the parity of ``line`` and ``mac``."""
    return parity ^ chip_parity(line, mac, width)


def chip_repair(
    line: int, mac: int, chip: int, syndrome: int, width: int = X4_CHIP_BITS
) -> Tuple[int, int]:
    """``(line, mac)`` repaired on the assumption that chip ``chip`` alone
    failed, from the ``syndrome`` of :func:`chip_syndrome`.

    The chip after the data chips is the MAC chip: repairing it rewrites
    the MAC rather than the data.
    """
    if chip == N_DATA_PINS // width:
        return line, (mac & ((1 << (PIN_SYMBOL_BITS * width)) - 1)) ^ syndrome
    return line ^ (lane_mask(syndrome, width) << (width * chip)), mac


def recover_chip(line: int, mac32: int, parity: int, chip: int) -> Tuple[int, int]:
    """Reconstruct x4 chip ``chip`` (0..16) from the chip-wise parity.

    Returns ``(line, mac32)`` with the target chip's contribution replaced
    by the parity-derived value. Chip 16 is the MAC chip: repairing it
    rewrites the MAC rather than the data.
    """
    return chip_repair(line, mac32, chip, chip_syndrome(line, mac32, parity))
