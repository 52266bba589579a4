"""Baseline memory organizations the paper compares against.

- :class:`ConventionalSECDED` — the stock ECC-DIMM data path: eight
  independent (72,64) SECDED codewords per line (Figure 3a). Corrects one
  bit per word and detects two; wider per-word corruption miscorrects or
  escapes silently — the Row-Hammer exposure SafeGuard closes.
- :class:`ConventionalChipkill` — the stock x4 symbol-code data path
  (Figure 8a): guaranteed single-chip correction; multi-chip corruption
  may raise a decoder failure, miscorrect, or escape.
- :class:`SGXStyleMAC` — Section VI-A.1: per-line MAC stored in a
  *separate* region of memory. Every read and write performs an extra
  memory access for the MAC; 12.5% of capacity is lost.
- :class:`SynergyStyleMAC` — Section VI-A.2: the 64-bit MAC rides in the
  ECC chip (no read overhead); correction parity lives in a separate
  region, so every write performs an extra access to update it; 12.5% of
  capacity is lost.

All four are thin compositions on the :mod:`repro.core.pipeline` base:
they share the :class:`~repro.core.backend.MemoryBackend` fault-injection
surface, the :class:`~repro.core.types.ControllerStats` wiring (every
read outcome — including DUEs and silent corruption — is observed through
the same template as the SafeGuard paths), and the per-access event
stream, so experiments can subject every organization to identical fault
patterns and read back comparable statistics.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.pipeline import AccessContext, MacStage, MemoryController
from repro.core.types import ReadResult, ReadStatus
from repro.ecc.chipkill import ChipkillCode, ChipkillStatus
from repro.ecc.hamming import DecodeStatus
from repro.ecc.parity import X8_CHIP_BITS, chip_parity, chip_repair, chip_syndrome
from repro.ecc.secded import WordSECDEDLine
from repro.utils.bits import extract_chip_bits, insert_chip_bits, int_to_bytes


class ConventionalSECDED(MemoryController):
    """Word-granularity SECDED ECC DIMM (the paper's SECDED baseline)."""

    def _setup(self) -> None:
        self._code = WordSECDEDLine()

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        _, ecc = self._code.encode(line)
        return line, ecc

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        decode = self._code.decode(raw, meta)
        if decode.status is DecodeStatus.DETECTED_UE:
            return ReadResult(int_to_bytes(decode.data), ReadStatus.DETECTED_UE)
        if decode.status is DecodeStatus.CORRECTED:
            return ReadResult(int_to_bytes(decode.data), ReadStatus.CORRECTED_BIT)
        return ReadResult(int_to_bytes(decode.data), ReadStatus.CLEAN)

    def _clean_read(self, ctx, address, stored):
        # A pristine line decodes clean; the plain path reports default costs.
        return ReadResult(int_to_bytes(stored.data), ReadStatus.CLEAN)


class ConventionalChipkill(MemoryController):
    """x4 symbol-based Chipkill DIMM (the paper's Chipkill baseline)."""

    def _setup(self) -> None:
        self._code = ChipkillCode()

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        _, checks = self._code.encode(line)
        return line, checks

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        decode = self._code.decode(raw, meta)
        if decode.status is ChipkillStatus.DETECTED_UE:
            return ReadResult(int_to_bytes(decode.data), ReadStatus.DETECTED_UE)
        if decode.status is ChipkillStatus.CORRECTED:
            return ReadResult(
                int_to_bytes(decode.data),
                ReadStatus.CORRECTED_CHIP,
                corrected_location=(
                    decode.corrected_chips[0] if decode.corrected_chips else None
                ),
            )
        return ReadResult(int_to_bytes(decode.data), ReadStatus.CLEAN)

    def _clean_read(self, ctx, address, stored):
        return ReadResult(int_to_bytes(stored.data), ReadStatus.CLEAN)

    def inject_chip_failure(self, address: int, chip: int, error_mask32: int) -> None:
        """XOR a per-beat nibble pattern into one chip (0..17)."""
        stored = self.backend.load(address)
        new_data, new_meta = self._code.corrupt_chip(
            stored.data, stored.meta, chip, error_mask32
        )
        data_mask = stored.data ^ new_data
        meta_mask = stored.meta ^ new_meta
        self.backend.inject_data_bits(address, data_mask)
        self.backend.inject_meta_bits(address, meta_mask)


class SGXStyleMAC(MemoryController):
    """SECDED ECC DIMM plus a per-line MAC in a separate memory region.

    Models the access pattern of SGX's MAC organization (Section VI-A.1):
    the MAC cannot ride with the data burst, so each read issues a second
    memory access for the MAC and each write writes both locations. The
    underlying correction is the conventional word SECDED.
    """

    MAC_BITS = 64
    READ_EXTRA_ACCESSES = 1
    WRITE_EXTRA_ACCESSES = 1
    STORAGE_OVERHEAD = 0.125

    def _setup(self) -> None:
        self._code = WordSECDEDLine()
        self.mac = MacStage(self.config.key, self.MAC_BITS, self.events)
        self._mac_region: Dict[int, int] = {}

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        _, ecc = self._code.encode(line)
        return line, ecc

    def _post_write(self, address: int, line: int, meta: int, data: bytes) -> None:
        self._mac_region[address] = self.mac.compute(data, address)

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        decode = self._code.decode(raw, meta)
        data = int_to_bytes(decode.data)
        ctx.extra_memory_accesses = self.READ_EXTRA_ACCESSES
        mac_ok = self.mac.matches_bytes(
            ctx, data, address, self._mac_region.get(address, 0)
        )
        if decode.status is DecodeStatus.DETECTED_UE or not mac_ok:
            status = ReadStatus.DETECTED_UE
        elif decode.status is DecodeStatus.CORRECTED:
            status = ReadStatus.CORRECTED_BIT
        else:
            status = ReadStatus.CLEAN
        return ReadResult(data, status, self._costs(ctx))

    def _clean_read(self, ctx, address, stored):
        # Pristine line *and* untouched MAC region (inject_mac_bits marks
        # the line): decode is clean and the MAC check matches.
        ctx.extra_memory_accesses = self.READ_EXTRA_ACCESSES
        self.mac.assume_match(ctx)
        return ReadResult(
            int_to_bytes(stored.data), ReadStatus.CLEAN, self._costs(ctx)
        )

    def inject_mac_bits(self, address: int, mask: int) -> None:
        """Corrupt the separately stored MAC (it lives in DRAM too)."""
        self._mac_region[address] = self._mac_region.get(address, 0) ^ mask
        if mask:
            self.backend.mark_injected(address)


class SynergyStyleMAC(MemoryController):
    """Synergy organization: MAC in the ECC chip, parity elsewhere.

    Section VI-A.2 (and [39]): an x8 ECC DIMM whose ninth chip holds a
    64-bit per-line MAC; a chip-wise parity (XOR across the 9 chips, 64
    bits) lives in a separate memory region. Reads need no extra access —
    detection uses the co-located MAC, and correction (rare) fetches the
    parity. Every write, however, must also update the parity line:
    one extra memory access per writeback, and 12.5% capacity loss.
    """

    MAC_BITS = 64
    N_CHIPS = 8  #: x8 data chips; chip contribution = 64 bits per line
    READ_EXTRA_ACCESSES = 0
    WRITE_EXTRA_ACCESSES = 1
    STORAGE_OVERHEAD = 0.125

    #: Synergy's correction latency is modeled as MAC checks only (the
    #: parity fetch is an extra memory access, not a cycle tail).
    count_reconstruct_latency = False

    def _setup(self) -> None:
        self.mac = MacStage(self.config.key, self.MAC_BITS, self.events)
        self._parity_region: Dict[int, int] = {}

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        return line, self.mac.compute(data, address)

    def _post_write(self, address: int, line: int, meta: int, data: bytes) -> None:
        self._parity_region[address] = chip_parity(line, meta, X8_CHIP_BITS)

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        if self.mac.matches(ctx, raw, address, meta):
            return self._result(ctx, raw, ReadStatus.CLEAN)
        return self._correct(ctx, address, raw, meta)

    def _clean_read(self, ctx, address, stored):
        # Pristine line: the co-located MAC matches; no parity fetch.
        self.mac.assume_match(ctx)
        return self._result(ctx, stored.data, ReadStatus.CLEAN)

    def _correct(
        self, ctx: AccessContext, address: int, raw: int, mac: int
    ) -> ReadResult:
        parity = self._parity_region.get(address, 0)
        ctx.extra_memory_accesses = 1  # parity fetch
        # Candidate chips: 8 data chips then the MAC chip, all from one
        # parity syndrome.
        syndrome = chip_syndrome(raw, mac, parity, X8_CHIP_BITS)
        hit = self._correction_search(
            ctx, self.mac, range(self.N_CHIPS + 1),
            lambda chip: chip_repair(raw, mac, chip, syndrome, X8_CHIP_BITS),
        )
        if hit is None:
            return self._due(ctx, raw)
        chip, repaired, _ = hit
        return self._result(ctx, repaired, ReadStatus.CORRECTED_CHIP, chip)

    def inject_chip_failure(self, address: int, chip: int, error_mask64: int) -> None:
        """Corrupt one x8 chip's 64-bit per-line contribution (0..7), or
        the MAC chip (8)."""
        if chip < self.N_CHIPS:
            stored = self.backend.load(address)
            current = extract_chip_bits(stored.data, chip, 8, self.N_CHIPS)
            new_data = insert_chip_bits(
                stored.data, chip, current ^ error_mask64, 8, self.N_CHIPS
            )
            self.backend.inject_data_bits(address, stored.data ^ new_data)
        elif chip == self.N_CHIPS:
            self.backend.inject_meta_bits(address, error_mask64)
        else:
            raise ValueError("chip must be in [0, 9)")
