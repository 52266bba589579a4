"""Bit-level helpers shared by the ECC codecs and the SafeGuard data path.

Conventions used throughout the repository:

- A 64-byte cache line is represented either as ``bytes`` (length 64) or as
  a single 512-bit Python integer. The integer form is *little-endian*:
  bit ``k`` of the integer is bit ``k % 8`` of byte ``k // 8``.
- Bus *beat* ``i`` (of the burst-8 transfer) carries bits
  ``[64*i, 64*i + 64)`` of the line.
- Data-bus *pin* ``j`` (0..63) carries bit ``64*i + j`` on beat ``i``; the
  8 bits a pin contributes over a burst form its *pin symbol* (the unit the
  column parity of Section IV-C protects).
- An x8 DRAM chip ``c`` drives pins ``[8c, 8c+8)``; an x4 chip ``c`` drives
  pins ``[4c, 4c+4)``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

LINE_BYTES = 64
LINE_BITS = LINE_BYTES * 8
WORD_BITS = 64
WORDS_PER_LINE = LINE_BITS // WORD_BITS
BEATS_PER_LINE = 8


def bit_get(value: int, index: int) -> int:
    """Return bit ``index`` of ``value`` (0 or 1)."""
    return (value >> index) & 1


def bit_set(value: int, index: int) -> int:
    """Return ``value`` with bit ``index`` set to 1."""
    return value | (1 << index)


def bit_clear(value: int, index: int) -> int:
    """Return ``value`` with bit ``index`` cleared to 0."""
    return value & ~(1 << index)


def bit_flip(value: int, index: int) -> int:
    """Return ``value`` with bit ``index`` inverted."""
    return value ^ (1 << index)


def flip_bits(value: int, indices: Sequence[int]) -> int:
    """Return ``value`` with every bit listed in ``indices`` inverted."""
    mask = 0
    for index in indices:
        mask ^= 1 << index
    return value ^ mask


def bytes_to_int(data: bytes) -> int:
    """Little-endian bytes -> integer (see module conventions)."""
    return int.from_bytes(data, "little")


def int_to_bytes(value: int, length: int = LINE_BYTES) -> bytes:
    """Integer -> little-endian bytes of the given length."""
    return value.to_bytes(length, "little")


def bytes_to_words(data: bytes) -> List[int]:
    """Split a line (or any 8*k bytes) into little-endian 64-bit words."""
    if len(data) % 8:
        raise ValueError("data length must be a multiple of 8 bytes")
    return [int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)]


def words_to_bytes(words: Sequence[int]) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return b"".join(word.to_bytes(8, "little") for word in words)


def int_to_words(value: int, n_words: int = WORDS_PER_LINE) -> List[int]:
    """Split an integer into ``n_words`` 64-bit words (word 0 = low bits)."""
    mask = (1 << WORD_BITS) - 1
    return [(value >> (WORD_BITS * i)) & mask for i in range(n_words)]


def words_to_int(words: Sequence[int]) -> int:
    """Inverse of :func:`int_to_words`."""
    value = 0
    for i, word in enumerate(words):
        value |= (word & ((1 << WORD_BITS) - 1)) << (WORD_BITS * i)
    return value


def popcount(value: int) -> int:
    """Number of set bits in ``value``."""
    return value.bit_count()


def parity(value: int) -> int:
    """Even parity of ``value`` (1 iff an odd number of bits are set)."""
    return popcount(value) & 1


def extract_pin_symbols(line: int, n_pins: int = 64, n_beats: int = BEATS_PER_LINE) -> List[int]:
    """Extract the per-pin symbols of a line.

    Pin ``j`` contributes one bit per beat; its symbol packs those
    ``n_beats`` bits with beat 0 in the LSB. Burst-8 lines over a multiple
    of 8 pins take a numpy transpose; other shapes, the positional loop.
    """
    # Imported lazily: repro.ecc depends on this module at import time.
    from repro.ecc import kernels

    if kernels.supports_pin_transpose(n_pins, n_beats):
        return kernels.extract_pin_symbols_fast(line, n_pins, n_beats)
    symbols = []
    for pin in range(n_pins):
        symbol = 0
        for beat in range(n_beats):
            symbol |= bit_get(line, beat * n_pins + pin) << beat
        symbols.append(symbol)
    return symbols


def insert_pin_symbol(
    line: int, pin: int, symbol: int, n_pins: int = 64, n_beats: int = BEATS_PER_LINE
) -> int:
    """Return ``line`` with pin ``pin``'s symbol replaced by ``symbol``."""
    for beat in range(n_beats):
        position = beat * n_pins + pin
        if (symbol >> beat) & 1:
            line = bit_set(line, position)
        else:
            line = bit_clear(line, position)
    return line


def pin_symbols_to_int(symbols: Sequence[int], n_beats: int = BEATS_PER_LINE) -> int:
    """Reassemble a line integer from its per-pin symbols (the inverse of
    :func:`extract_pin_symbols`, shape for shape)."""
    from repro.ecc import kernels

    n_pins = len(symbols)
    if kernels.supports_pin_transpose(n_pins, n_beats):
        return kernels.pin_symbols_to_int_fast(symbols, n_beats)
    line = 0
    for pin, symbol in enumerate(symbols):
        for beat in range(n_beats):
            if (symbol >> beat) & 1:
                line |= 1 << (beat * n_pins + pin)
    return line


def extract_chip_bits(
    line: int, chip: int, bits_per_chip: int, n_chips: int, n_beats: int = BEATS_PER_LINE
) -> int:
    """Extract the bits chip ``chip`` contributes to a line.

    Chip ``chip`` drives pins ``[chip*bits_per_chip, (chip+1)*bits_per_chip)``
    of each beat; the result packs beat 0's contribution in the low bits.
    """
    n_pins = n_chips * bits_per_chip
    out = 0
    for beat in range(n_beats):
        base = beat * n_pins + chip * bits_per_chip
        chunk = (line >> base) & ((1 << bits_per_chip) - 1)
        out |= chunk << (beat * bits_per_chip)
    return out


def insert_chip_bits(
    line: int,
    chip: int,
    value: int,
    bits_per_chip: int,
    n_chips: int,
    n_beats: int = BEATS_PER_LINE,
) -> int:
    """Return ``line`` with chip ``chip``'s contribution replaced by ``value``."""
    n_pins = n_chips * bits_per_chip
    chunk_mask = (1 << bits_per_chip) - 1
    for beat in range(n_beats):
        base = beat * n_pins + chip * bits_per_chip
        chunk = (value >> (beat * bits_per_chip)) & chunk_mask
        line = (line & ~(chunk_mask << base)) | (chunk << base)
    return line


def random_line(rng: random.Random) -> bytes:
    """A uniformly random 64-byte line."""
    return rng.getrandbits(LINE_BITS).to_bytes(LINE_BYTES, "little")
