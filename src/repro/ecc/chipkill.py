"""Conventional x4 Chipkill (single-symbol-correcting symbol code).

Models the organization of Figure 8a: an 18-chip x4 DIMM where 16 chips
carry data and two ECC chips carry Reed-Solomon check symbols.

A standard RS code over GF(16) maxes out at 15 symbols, so an 18-symbol
codeword cannot use 4-bit symbols directly; like commercial chipkill
designs, we widen the symbol to cover a chip's contribution across *two*
bus beats: chip ``c`` contributes one 8-bit symbol per beat-pair (its 4
bits from each beat), giving four RS(18,16) codewords over GF(256) per
64-byte line. Distance 3 → any single symbol (hence any single-chip)
error per codeword is corrected, which covers a whole-chip failure across
the burst. The two check symbols per codeword are exactly the 4 bits per
beat each of the two ECC chips provides (16 bits per beat-pair, 64 bits
per line — the same ECC budget as SECDED DIMMs).

Detection beyond single-symbol follows the real algebra of the code:
a two-chip error either raises a decoder failure (detected uncorrectable
error) or aliases onto a miscorrection — the weakness ECCploit
(Section V, [6]) exploits and SafeGuard's MAC closes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.ecc import kernels
from repro.ecc.gf import GF256
from repro.ecc.reed_solomon import ReedSolomon, RSDecodeFailure
from repro.utils.bits import LINE_BITS


class ChipkillStatus(enum.Enum):
    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED_UE = "detected_ue"


@dataclass(frozen=True)
class ChipkillResult:
    """Outcome of decoding one line under Chipkill."""

    data: int  #: 512-bit (possibly corrected) line
    status: ChipkillStatus
    corrected_chips: Tuple[int, ...]  #: chip indices repaired in any codeword

    @property
    def ok(self) -> bool:
        return self.status is not ChipkillStatus.DETECTED_UE


class ChipkillCode:
    """Line-level Chipkill codec: 4 RS(18,16)/GF(256) codewords per line."""

    N_CHIPS = 18
    DATA_CHIPS = 16
    SYMBOL_BITS = 8  #: one chip's contribution per beat-pair
    BEATS = 8
    BEAT_PAIRS = BEATS // 2
    CHECK_BITS_PER_PAIR = 16  #: two 8-bit check symbols
    ECC_BITS = BEAT_PAIRS * CHECK_BITS_PER_PAIR  #: 64 bits per line

    def __init__(self):
        self._rs = ReedSolomon(GF256, self.N_CHIPS, self.DATA_CHIPS)

    # -- symbol packing -------------------------------------------------------

    def _all_pair_symbols(self, line: int) -> List[List[int]]:
        """The 16 data symbols (chip order) of every beat-pair."""
        return kernels.chipkill_pair_symbols(line)

    def _set_pair_symbols(self, line: int, pair: int, symbols: List[int]) -> int:
        base0 = (2 * pair) * 64
        base1 = (2 * pair + 1) * 64
        for chip, symbol in enumerate(symbols):
            line &= ~(0xF << (base0 + 4 * chip))
            line &= ~(0xF << (base1 + 4 * chip))
            line |= (symbol & 0xF) << (base0 + 4 * chip)
            line |= ((symbol >> 4) & 0xF) << (base1 + 4 * chip)
        return line

    # -- codec ----------------------------------------------------------------

    def encode(self, line: int) -> Tuple[int, int]:
        """512-bit line -> (line, 64-bit packed check symbols).

        Beat-pair ``p``'s check symbols occupy bits ``[16p, 16p+16)`` of
        the packed value: chip 16's symbol in the low byte, chip 17's in
        the high byte.
        """
        if line < 0 or line >> LINE_BITS:
            raise ValueError("line does not fit in 512 bits")
        checks = 0
        for pair, symbols in enumerate(self._all_pair_symbols(line)):
            codeword = self._rs.encode(symbols)
            c0, c1 = codeword[self.DATA_CHIPS], codeword[self.DATA_CHIPS + 1]
            checks |= (c0 | (c1 << 8)) << (16 * pair)
        return line, checks

    def decode(self, line: int, checks: int) -> ChipkillResult:
        """Decode all 4 codewords; aggregate the worst per-pair outcome."""
        corrected_line = line
        corrected_chips: Set[int] = set()
        worst = ChipkillStatus.CLEAN
        for pair, symbols in enumerate(self._all_pair_symbols(line)):
            field = (checks >> (16 * pair)) & 0xFFFF
            received = symbols + [field & 0xFF, (field >> 8) & 0xFF]
            try:
                result = self._rs.decode(received)
            except RSDecodeFailure:
                worst = ChipkillStatus.DETECTED_UE
                continue
            if result.corrected_positions:
                corrected_chips.update(result.corrected_positions)
                if worst is ChipkillStatus.CLEAN:
                    worst = ChipkillStatus.CORRECTED
                corrected_line = self._set_pair_symbols(
                    corrected_line, pair, list(result.data)
                )
        return ChipkillResult(corrected_line, worst, tuple(sorted(corrected_chips)))

    # -- batched API ----------------------------------------------------------

    def encode_batch(self, lines: Iterable[int]) -> List[Tuple[int, int]]:
        """Encode many lines; one ``(line, checks)`` pair per input line."""
        return [self.encode(line) for line in lines]

    def decode_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[ChipkillResult]:
        """Decode many ``(line, checks)`` pairs."""
        return [self.decode(line, checks) for line, checks in pairs]

    # -- fault-injection helpers ------------------------------------------------

    def corrupt_chip(self, line: int, checks: int, chip: int, pattern: int) -> Tuple[int, int]:
        """XOR an error ``pattern`` into chip ``chip``'s contribution.

        ``pattern`` packs one 4-bit error per beat (beat 0 in the low
        nibble); a zero nibble leaves that beat untouched. Chips 16 and 17
        corrupt the packed check bits instead of the line.
        """
        for beat in range(self.BEATS):
            err = (pattern >> (4 * beat)) & 0xF
            if not err:
                continue
            if chip < self.DATA_CHIPS:
                line ^= err << (beat * 64 + 4 * chip)
            else:
                pair = beat // 2
                nibble_shift = (beat % 2) * 4  # low/high nibble of the symbol
                byte_shift = (chip - self.DATA_CHIPS) * 8  # chip 16 -> c0, 17 -> c1
                checks ^= err << (16 * pair + byte_shift + nibble_shift)
        return line, checks
