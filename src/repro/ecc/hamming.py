"""Parameterizable Hamming codes.

Two codecs are provided:

- :class:`HammingSEC` — single-error-correcting Hamming code with ``k``
  data bits and the minimum number of check bits ``r`` satisfying
  ``2**r >= k + r + 1``. This is the "ECC-1" primitive of the paper: for a
  64-byte line plus its MAC (``k = 566``), ``r = 10`` — the 10 ECC-1 bits
  of Figure 3b / Figure 5.
- :class:`HammingSECDED` — the extended Hamming code (one extra overall
  parity bit) providing single-error correction *and* double-error
  detection. With ``k = 64`` this is the conventional (72,64) SECDED code
  of ECC DIMMs (Figure 3a).

Codewords are Python integers. Internally the classic positional layout is
used: codeword positions are numbered from 1, check bits sit at the
power-of-two positions, and the syndrome of a single-bit error equals the
(1-based) position of the flipped bit. The extended parity bit, when
present, is appended above position ``n``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.ecc import kernels
from repro.utils.bits import parity


class DecodeStatus(enum.Enum):
    """Outcome of an ECC decode."""

    #: Syndrome clean: the codeword is consistent (no error, or an
    #: undetectable pattern).
    CLEAN = "clean"
    #: A single-bit error was located and corrected.
    CORRECTED = "corrected"
    #: An uncorrectable error was detected (DED fired).
    DETECTED_UE = "detected_ue"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding a (possibly corrupted) codeword."""

    data: int
    status: DecodeStatus
    #: 0-based index into the *codeword* of the corrected bit, or None.
    corrected_bit: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True when the decode did not flag an uncorrectable error."""
        return self.status is not DecodeStatus.DETECTED_UE


def _check_bit_count(k: int) -> int:
    """Minimum r with 2**r >= k + r + 1."""
    r = 1
    while (1 << r) < k + r + 1:
        r += 1
    return r


@lru_cache(maxsize=None)
def _layout(k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(data_positions, check_positions)`` of the ``k``-bit code.

    Positional layout: positions ``1..n``; powers of two hold the check
    bits. Built once per width (the registry uses a few).
    """
    n = k + _check_bit_count(k)
    data_positions = tuple(pos for pos in range(1, n + 1) if pos & (pos - 1))
    check_positions = tuple(1 << i for i in range(n - k))
    return data_positions, check_positions


class HammingSEC:
    """Single-error-correcting Hamming code over ``k`` data bits.

    ``encode`` maps a ``k``-bit data integer to an ``n = k + r``-bit
    codeword integer; ``decode`` corrects any single flipped codeword bit.
    Double-bit errors are *miscorrected* (this is a distance-3 code) —
    SafeGuard relies on the MAC, not on ECC-1, for detection.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.r = _check_bit_count(k)
        self.n = k + self.r
        # Table-driven scatter/gather + syndrome kernel (shared per layout).
        self._kernel = kernels.hamming_kernel(k, self.n, *_layout(k))

    def encode(self, data: int) -> int:
        """Encode ``k`` data bits into an ``n``-bit codeword."""
        if data < 0 or data >> self.k:
            raise ValueError(f"data does not fit in {self.k} bits")
        return self._kernel.encode(data)

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a codeword, correcting at most one flipped bit."""
        if codeword < 0 or codeword >> self.n:
            raise ValueError(f"codeword does not fit in {self.n} bits")
        syndrome = self._kernel.syndrome(codeword)
        if syndrome == 0:
            return DecodeResult(self._kernel.gather_data(codeword), DecodeStatus.CLEAN)
        if syndrome > self.n:
            # A syndrome pointing past the codeword cannot be a single-bit
            # error; with plain SEC this is the only detectable UE pattern.
            return DecodeResult(
                self._kernel.gather_data(codeword), DecodeStatus.DETECTED_UE
            )
        corrected = codeword ^ (1 << (syndrome - 1))
        return DecodeResult(
            self._kernel.gather_data(corrected), DecodeStatus.CORRECTED, syndrome - 1
        )


class HammingSECDED(HammingSEC):
    """Extended Hamming code: SEC plus double-error detection.

    One overall-parity bit is appended above the SEC codeword. Decode
    outcomes follow the classic truth table:

    ========  ===============  =================================
    syndrome  overall parity   verdict
    ========  ===============  =================================
    0         even             clean
    0         odd              parity bit itself flipped (corrected)
    != 0      odd              single-bit error (corrected)
    != 0      even             double-bit error (DETECTED_UE)
    ========  ===============  =================================
    """

    def __init__(self, k: int):
        super().__init__(k)
        self.n_total = self.n + 1  #: codeword width including overall parity

    def encode(self, data: int) -> int:
        inner = super().encode(data)
        return inner | (parity(inner) << self.n)

    def decode(self, codeword: int) -> DecodeResult:
        if codeword < 0 or codeword >> self.n_total:
            raise ValueError(f"codeword does not fit in {self.n_total} bits")
        inner = codeword & ((1 << self.n) - 1)
        overall_odd = parity(codeword) == 1
        syndrome = self._kernel.syndrome(inner)
        data = self._kernel.gather_data(inner)
        if syndrome == 0:
            if not overall_odd:
                return DecodeResult(data, DecodeStatus.CLEAN)
            # Only the overall parity bit flipped.
            return DecodeResult(data, DecodeStatus.CORRECTED, self.n)
        if not overall_odd or syndrome > self.n:
            return DecodeResult(data, DecodeStatus.DETECTED_UE)
        corrected = inner ^ (1 << (syndrome - 1))
        return DecodeResult(
            self._kernel.gather_data(corrected), DecodeStatus.CORRECTED, syndrome - 1
        )
