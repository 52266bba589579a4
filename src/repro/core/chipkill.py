"""SafeGuard on x4 Chipkill DIMMs (Section V).

The 18-chip x4 DIMM stores the 512-bit line across 16 data chips (32 bits
per chip per line); SafeGuard repurposes the two ECC chips as:

- chip 16: a 32-bit per-line MAC (error/tamper detection), and
- chip 17: a 32-bit chip-wise parity across the other 17 chips
  (correction of one full chip failure).

Read path:

- *Iterative correction* (Section V-B, Figure 9a): verify the MAC of the
  raw data; on mismatch, iterate over the 17 non-parity chips, replacing
  each candidate's contribution with its reconstruction from the parity
  syndrome and re-checking the MAC. A match repairs the line; exhausting all
  candidates raises a DUE.
- *Eager correction* (Section V-D, Figure 9b, the default): once a failed
  chip is known, skip the pre-correction MAC check — which under a
  permanent chip failure would be performed on corrupted data every
  access, accumulating 2^-32 escape probability per read (Section V-C) —
  and verify only the reconstructed line. Interchanging failures between
  chips ("ping-pong") beyond a small bound are declared DUEs.
- *Spare lines* (footnote 2): a line repaired for a single-bit fault is
  copied into one of a few controller spare lines so that recurring
  accesses to permanently faulty lines skip iterative correction.

The controller is a composition on the :mod:`repro.core.pipeline` base:
the two ECC chips are a declarative :class:`FieldLayout`, the MAC is a
:class:`MacStage`, the Section V-D failed-chip memory is a
:class:`ChipHistory`, and both corrections are the pipeline's correction
search.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.pipeline import (
    AccessContext,
    ChipHistory,
    FieldLayout,
    MacStage,
    MemoryController,
)
from repro.core.spare import SpareLineBuffer
from repro.core.types import AccessCosts, ReadResult, ReadStatus
from repro.ecc.parity import N_X4_DATA_CHIPS, chip_parity, chip_repair, chip_syndrome
from repro.utils.bits import extract_chip_bits, int_to_bytes

#: Chip indices: 0..15 data, 16 MAC, 17 parity.
MAC_CHIP = 16
PARITY_CHIP = 17
N_CORRECTION_CANDIDATES = 17  #: data chips + MAC chip (parity chip needs no search)


class SafeGuardChipkill(MemoryController):
    """SafeGuard memory controller for x4 Chipkill modules."""

    def _setup(self) -> None:
        self.mac_bits = self.config.chipkill_mac_bits()
        if self.mac_bits > 32:
            raise ValueError("the MAC chip provides at most 32 bits per line")
        #: The two repurposed ECC chips: MAC chip then parity chip.
        self.meta_layout = FieldLayout(("mac", 32), ("parity", 32))
        self.mac = MacStage(self.config.key, self.mac_bits, self.events)
        self.spares = SpareLineBuffer(self.config.spare_lines)
        self.chips = ChipHistory(N_CORRECTION_CANDIDATES, self.config.ping_pong_limit)

    # -- write path ----------------------------------------------------------

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        mac = self.mac.compute(data, address) & 0xFFFFFFFF
        return line, self.meta_layout.pack(mac=mac, parity=chip_parity(line, mac))

    def _post_write(self, address: int, line: int, meta: int, data: bytes) -> None:
        self.spares.invalidate(address)

    # -- read path ------------------------------------------------------------

    def _pre_read(self, ctx: AccessContext, address: int) -> Optional[ReadResult]:
        spared = self.spares.lookup(address)
        if spared is None:
            return None
        return ReadResult(spared, ReadStatus.SERVICED_BY_SPARE, AccessCosts())

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        fields = self.meta_layout.unpack(meta)
        mac, parity = fields["mac"], fields["parity"]
        # Eager correction (Figure 9b) skips the pre-correction check: the
        # search starts with the known chip, so its reconstruction gets the
        # only MAC check a read of the known failure pays.
        eager = self.config.eager_correction and self.chips.eager_ready
        if not eager and self.mac.matches(ctx, raw, address, mac):
            return self._result(ctx, raw, ReadStatus.CLEAN)
        known = self.chips.known
        syndrome = chip_syndrome(raw, mac, parity)
        hit = self._correction_search(
            ctx, self.mac, self.chips.candidates(),
            lambda chip: chip_repair(raw, mac, chip, syndrome),
        )
        if hit is None:
            return self._due(ctx, raw)
        chip, repaired_line, repaired_mac = hit
        if eager and chip == known and repaired_line == raw and repaired_mac == mac:
            # No fault was present; eager reconstruction is a no-op.
            self.chips.reset()
            return self._result(ctx, raw, ReadStatus.CLEAN)
        if self.chips.note_repair(chip):
            # Interchanging chip failures: not a pattern Chipkill is
            # expected to repair — declare a DUE (Section V-D).
            return self._due(ctx, raw)
        self._maybe_spare(address, raw, repaired_line)
        return self._result(ctx, repaired_line, ReadStatus.CORRECTED_CHIP, chip)

    def _clean_read(self, ctx, address, stored):
        # Eager mode reconstructs the remembered chip even on fault-free
        # lines (and resets the history) — let the full path run.
        if self.config.eager_correction and self.chips.eager_ready:
            return None
        # Iterative path on a pristine line: the first MAC check matches.
        self.mac.assume_match(ctx)
        return self._result(ctx, stored.data, ReadStatus.CLEAN)

    # -- helpers -----------------------------------------------------------------

    def _maybe_spare(self, address: int, raw: int, repaired: int) -> None:
        """Footnote 2: spare lines absorb single-bit permanent faults."""
        diff = raw ^ repaired
        if diff and bin(diff).count("1") == 1:
            self.spares.insert(address, int_to_bytes(repaired))

    # -- fault-injection conveniences ------------------------------------------------

    def inject_chip_failure(self, address: int, chip: int, error_mask32: int) -> None:
        """XOR a 32-bit error pattern into one chip's per-line contribution.

        Chips 0..15 corrupt the data line, chip 16 the stored MAC, chip 17
        the stored parity.
        """
        error_mask32 &= 0xFFFFFFFF
        if not error_mask32:
            return
        if chip < N_X4_DATA_CHIPS:
            mask = 0
            for beat in range(8):
                nibble = (error_mask32 >> (4 * beat)) & 0xF
                mask |= nibble << (beat * 64 + 4 * chip)
            self.backend.inject_data_bits(address, mask)
        elif chip == MAC_CHIP:
            self.backend.inject_meta_bits(address, error_mask32)
        elif chip == PARITY_CHIP:
            self.backend.inject_meta_bits(address, error_mask32 << 32)
        else:
            raise ValueError("chip must be in [0, 18)")

    def chip_contribution(self, address: int, chip: int) -> int:
        """The stored 32-bit contribution of a chip (for tests)."""
        stored = self.backend.load(address)
        if chip < N_X4_DATA_CHIPS:
            return extract_chip_bits(stored.data, chip, 4, N_X4_DATA_CHIPS)
        if chip == MAC_CHIP:
            return stored.meta & 0xFFFFFFFF
        if chip == PARITY_CHIP:
            return (stored.meta >> 32) & 0xFFFFFFFF
        raise ValueError("chip must be in [0, 18)")
