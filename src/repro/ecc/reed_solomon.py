"""Generic Reed-Solomon codec over GF(2^m).

Systematic RS(n, k) with ``n - k = 2t`` check symbols: encodes by
polynomial division, decodes via syndromes, Berlekamp-Massey, Chien search
and Forney's formula. Decoder failure (more than ``t`` symbol errors that
do not alias onto a valid codeword) raises :class:`RSDecodeFailure` — the
event conventional Chipkill reports as a detected-uncorrectable error.

The Chipkill codec (:mod:`repro.ecc.chipkill`) instantiates RS(18, 16)
over GF(16): one 4-bit symbol per x4 chip per bus beat, two check symbols
held by the two ECC chips, distance 3 → guaranteed single-symbol (i.e.
single-chip) correction per beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.ecc import kernels
from repro.ecc.gf import GF2m


class RSDecodeFailure(Exception):
    """The received word is not within distance t of any codeword."""


@dataclass(frozen=True)
class RSDecodeResult:
    """Successful decode: corrected data symbols and error positions."""

    data: Tuple[int, ...]
    corrected_positions: Tuple[int, ...]  #: codeword indices that were repaired

    @property
    def n_corrected(self) -> int:
        return len(self.corrected_positions)


class ReedSolomon:
    """Systematic RS(n, k) over the given field.

    Codeword layout: ``codeword[0:k]`` are the data symbols,
    ``codeword[k:n]`` the check symbols. Symbol ``i`` of the codeword is
    associated with evaluation point ``alpha**i`` via the conventional
    generator ``g(x) = (x - alpha^1)...(x - alpha^2t)``.
    """

    def __init__(self, field: GF2m, n: int, k: int, fcr: int = 1):
        if not 0 < k < n < field.size:
            raise ValueError("require 0 < k < n < field size")
        self.field = field
        self.n = n
        self.k = k
        self.n_checks = n - k
        self.t = self.n_checks // 2
        self.fcr = fcr  #: first consecutive root exponent
        gen = [1]
        for i in range(self.n_checks):
            gen = field.poly_mul(gen, [field.alpha_pow(fcr + i), 1])
        self._generator = gen
        # Packed-lane lookup tables for encode/syndromes (shared per code).
        # Their symbols live in 8-bit lanes, so a wider field has none and
        # takes the positional loops below, its only path.
        self._kernel = (
            kernels.rs_kernel(field, n, k, fcr, gen) if field.m <= 8 else None
        )

    # -- encode --------------------------------------------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Data symbols -> full codeword (data followed by checks)."""
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data symbols")
        if self._kernel is not None:
            return list(data) + self._kernel.encode_checks(data)
        field = self.field
        # Message polynomial m(x) * x^(2t); remainder mod g(x) gives checks.
        # Work with coefficient list where index = degree: data symbol i is
        # the coefficient of x^(n-1-i), the usual big-endian convention.
        remainder = [0] * self.n_checks
        for symbol in data:
            feedback = symbol ^ remainder[-1]
            remainder = [0] + remainder[:-1]
            if feedback:
                for d in range(self.n_checks):
                    if self._generator[d]:
                        remainder[d] ^= field.mul(feedback, self._generator[d])
        checks = list(reversed(remainder))
        return list(data) + checks

    # -- decode --------------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """The 2t syndromes of a received word (all zero iff consistent)."""
        if self._kernel is not None and len(received) == self.n:
            return self._kernel.syndromes(received)
        field = self.field
        # received[i] is the coefficient of x^(n-1-i).
        out = []
        for j in range(self.n_checks):
            x = field.alpha_pow(self.fcr + j)
            acc = 0
            for symbol in received:
                acc = field.mul(acc, x) ^ symbol
            out.append(acc)
        return out

    def decode(self, received: Sequence[int]) -> RSDecodeResult:
        """Correct up to t symbol errors; raise RSDecodeFailure otherwise."""
        if len(received) != self.n:
            raise ValueError(f"expected {self.n} symbols")
        synd = self.syndromes(received)
        if not any(synd):
            return RSDecodeResult(tuple(received[: self.k]), ())
        locator = self._berlekamp_massey(synd)
        n_errors = len(locator) - 1
        if n_errors > self.t:
            raise RSDecodeFailure("error locator degree exceeds t")
        positions = self._chien_search(locator)
        if len(positions) != n_errors:
            raise RSDecodeFailure("locator roots do not match its degree")
        corrected = self._forney(list(received), synd, locator, positions)
        # Re-check: the corrected word must have zero syndromes.
        if any(self.syndromes(corrected)):
            raise RSDecodeFailure("correction did not produce a codeword")
        return RSDecodeResult(tuple(corrected[: self.k]), tuple(sorted(positions)))

    # -- internals -------------------------------------------------------------

    def _berlekamp_massey(self, synd: List[int]) -> List[int]:
        field = self.field
        locator = [1]
        prev = [1]
        shift = 1
        prev_discrepancy = 1
        for i in range(self.n_checks):
            discrepancy = synd[i]
            for j in range(1, len(locator)):
                if j <= i and locator[j]:
                    discrepancy ^= field.mul(locator[j], synd[i - j])
            if discrepancy == 0:
                shift += 1
                continue
            scale = field.div(discrepancy, prev_discrepancy)
            candidate = field.poly_add(
                locator, [0] * shift + field.poly_scale(prev, scale)
            )
            if 2 * (len(locator) - 1) <= i:
                prev = locator
                prev_discrepancy = discrepancy
                shift = 1
            else:
                shift += 1
            locator = candidate
        # Trim trailing zero coefficients.
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _chien_search(self, locator: List[int]) -> List[int]:
        field = self.field
        positions = []
        for i in range(self.n):
            # Position i (big-endian) corresponds to locator root alpha^-(n-1-i).
            x = field.alpha_pow(-(self.n - 1 - i) % (field.size - 1))
            if field.poly_eval(locator, x) == 0:
                positions.append(i)
        return positions

    def _forney(
        self,
        received: List[int],
        synd: List[int],
        locator: List[int],
        positions: List[int],
    ) -> List[int]:
        field = self.field
        # Error evaluator omega(x) = S(x) * locator(x) mod x^(2t).
        omega = field.poly_mul(list(synd), locator)[: self.n_checks]
        # Formal derivative of the locator: the coefficient of x^(d-1) is
        # d * locator[d], and over GF(2^m) that is locator[d] when d is
        # odd, zero when even.
        deriv_poly = [
            locator[d] if d % 2 == 1 else 0 for d in range(1, len(locator))
        ]
        corrected = list(received)
        for pos in positions:
            exp = (self.n - 1 - pos) % (field.size - 1)
            x_inv = field.alpha_pow(-exp % (field.size - 1))
            num = field.poly_eval(omega, x_inv)
            den = field.poly_eval(deriv_poly, x_inv)
            if den == 0:
                raise RSDecodeFailure("Forney denominator is zero")
            magnitude = field.div(num, den)
            # fcr adjustment: magnitude scaled by X^(1-fcr); with fcr=1 none.
            if self.fcr != 1:
                magnitude = field.mul(
                    magnitude, field.pow(field.alpha_pow(exp), 1 - self.fcr)
                )
            corrected[pos] ^= magnitude
        return corrected
