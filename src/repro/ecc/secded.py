"""The concrete ECC instances used by the paper.

- :class:`SECDED72` — the (72,64) word-granularity SECDED code of
  conventional ECC DIMMs (Figure 3a): 64 data bits + 8 ECC bits per bus
  beat.
- :class:`WordSECDEDLine` — a full 64-byte line protected word-by-word by
  :class:`SECDED72`, i.e. the *conventional* data path SafeGuard replaces.
  Eight independent codewords per line, 64 bits of ECC total.
- :class:`LineECC1` — SafeGuard's line-granularity single-error-correcting
  code (Figure 3b / Figure 5): one Hamming SEC codeword across the whole
  512-bit line plus its MAC (and column parity when present). 10 check
  bits cover payloads up to 1013 bits, matching the paper's "10 bits for
  ECC-1".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.ecc.hamming import DecodeResult, DecodeStatus, HammingSEC, HammingSECDED
from repro.utils.bits import LINE_BITS, WORD_BITS, int_to_words, words_to_int


class SECDED72:
    """(72,64) SECDED: the per-word code of conventional ECC DIMMs."""

    DATA_BITS = WORD_BITS
    CODE_BITS = 72
    ECC_BITS = CODE_BITS - DATA_BITS

    def __init__(self):
        self._code = HammingSECDED(self.DATA_BITS)
        assert self._code.n_total == self.CODE_BITS

    def encode(self, word: int) -> int:
        """64-bit word -> 72-bit codeword."""
        return self._code.encode(word)

    def decode(self, codeword: int) -> DecodeResult:
        """72-bit codeword -> corrected 64-bit word + status."""
        return self._code.decode(codeword)


@dataclass(frozen=True)
class LineDecodeResult:
    """Decode result for a whole line under word-granularity SECDED."""

    data: int  #: 512-bit corrected line
    status: DecodeStatus  #: worst status across the 8 word codewords
    word_statuses: Tuple[DecodeStatus, ...]

    @property
    def ok(self) -> bool:
        return self.status is not DecodeStatus.DETECTED_UE


class WordSECDEDLine:
    """A 64-byte line protected by eight independent (72,64) codewords.

    This is the conventional ECC-DIMM organization: beat ``i`` carries word
    ``i`` and its own 8-bit SECDED. ``encode`` returns ``(line, ecc)``
    where ``ecc`` packs the eight 8-bit ECC fields (word 0's ECC in the
    low byte) — exactly the 64 bits stored in the ECC chip.
    """

    ECC_BITS = 64

    def __init__(self):
        self._word_code = SECDED72()

    def encode(self, line: int) -> Tuple[int, int]:
        """512-bit line -> (line, 64-bit packed ECC)."""
        if line < 0 or line >> LINE_BITS:
            raise ValueError("line does not fit in 512 bits")
        ecc = 0
        for i, word in enumerate(int_to_words(line)):
            codeword = self._word_code.encode(word)
            ecc |= self._extract_ecc_field(codeword, word) << (8 * i)
        return line, ecc

    def decode(self, line: int, ecc: int) -> LineDecodeResult:
        """Check/correct each word codeword; aggregate the worst status."""
        corrected_words: List[int] = []
        statuses: List[DecodeStatus] = []
        for i, word in enumerate(int_to_words(line)):
            field = (ecc >> (8 * i)) & 0xFF
            codeword = self._insert_ecc_field(word, field)
            result = self._word_code.decode(codeword)
            corrected_words.append(result.data)
            statuses.append(result.status)
        worst = DecodeStatus.CLEAN
        if DecodeStatus.CORRECTED in statuses:
            worst = DecodeStatus.CORRECTED
        if DecodeStatus.DETECTED_UE in statuses:
            worst = DecodeStatus.DETECTED_UE
        return LineDecodeResult(words_to_int(corrected_words), worst, tuple(statuses))

    # -- batched API ---------------------------------------------------------

    def encode_batch(self, lines: Iterable[int]) -> List[Tuple[int, int]]:
        """Encode many lines; one ``(line, ecc)`` pair per input line."""
        return [self.encode(line) for line in lines]

    def decode_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[LineDecodeResult]:
        """Decode many ``(line, ecc)`` pairs."""
        return [self.decode(line, ecc) for line, ecc in pairs]

    # -- ECC field packing --------------------------------------------------
    #
    # The Hamming codeword interleaves check bits positionally. To store
    # "the 8 ECC bits" separately (as the ECC chip does) we gather the check
    # positions into a compact field and scatter them back before decoding.

    def _extract_ecc_field(self, codeword: int, word: int) -> int:
        code = self._word_code._code
        field = code._kernel.gather_checks(codeword)
        return field | (((codeword >> code.n) & 1) << code.r)  # overall parity

    def _insert_ecc_field(self, word: int, field: int) -> int:
        code = self._word_code._code
        codeword = code._kernel.scatter_data(word)
        codeword |= code._kernel.scatter_checks(field & ((1 << code.r) - 1))
        if (field >> code.r) & 1:
            codeword |= 1 << code.n
        return codeword


class LineECC1:
    """Line-granularity SEC: one Hamming codeword over data (+MAC, +parity).

    The payload is the concatenation (low bits first) of the 512-bit line
    and whatever metadata the SafeGuard variant protects alongside it (the
    54-bit MAC in Figure 3b; the 46-bit MAC and 8-bit column parity in
    Figure 5). 10 check bits suffice for any payload up to 1013 bits.
    """

    CHECK_BITS = 10

    def __init__(self, payload_bits: int):
        if payload_bits > (1 << self.CHECK_BITS) - self.CHECK_BITS - 1:
            raise ValueError("payload too large for 10 check bits")
        self.payload_bits = payload_bits
        self._code = HammingSEC(payload_bits)
        assert self._code.r <= self.CHECK_BITS, (
            f"payload of {payload_bits} bits needs {self._code.r} check bits"
        )
        self.check_bits = self._code.r

    def encode(self, payload: int) -> int:
        """Return the ECC-1 check bits for a payload."""
        codeword = self._code.encode(payload)
        return self._gather_checks(codeword)

    def correct(self, payload: int, checks: int) -> DecodeResult:
        """Correct at most one flipped bit in payload+checks."""
        codeword = self._scatter(payload, checks)
        return self._code.decode(codeword)

    # -- batched API ---------------------------------------------------------

    def encode_batch(self, payloads: Iterable[int]) -> List[int]:
        """ECC-1 check bits for many payloads."""
        return [self.encode(payload) for payload in payloads]

    def decode_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[DecodeResult]:
        """Correct many ``(payload, checks)`` pairs."""
        return [self.correct(payload, checks) for payload, checks in pairs]

    # -- check-bit packing ---------------------------------------------------

    def _gather_checks(self, codeword: int) -> int:
        return self._code._kernel.gather_checks(codeword)

    def _scatter(self, payload: int, checks: int) -> int:
        kernel = self._code._kernel
        return kernel.scatter_data(payload) | kernel.scatter_checks(checks)
