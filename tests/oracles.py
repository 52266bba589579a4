"""Straightforward implementations the product's faster paths must match.

- :func:`run_comparison_multiseed` — the multi-seed performance
  comparison as a plain per-seed loop over ``run_comparison``; the
  campaign path (``run_comparison_multiseed_parallel``) must reproduce it.
- :class:`OracleSafeGuardSECDED`, :class:`OracleSafeGuardChipkill`,
  :class:`OracleSynergyStyleMAC` — the three controllers with their
  correction searches written as one loop each: every candidate rebuilt
  from scratch from the stored parity (:func:`rebuild_pin`,
  :func:`rebuild_chip`, Synergy's inline) and checked with its own MAC,
  in order. The controllers build every candidate from one syndrome
  and MAC the candidates after the first in one batch; their results,
  costs, events and search history must equal these.
- :func:`simulate_module`, :func:`simulate_range`,
  :func:`simulate_range_fast` — the Monte-Carlo engines with the
  draw-interleaved per-module loop: each busy module seeds its own
  ``random.Random`` and draws every fault's time, mode, chip and
  placement as it classifies them. Both engines replay those streams
  decoded in numpy and classify most arrivals by table; their failure
  columns must equal these row for row.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines import SynergyStyleMAC
from repro.core.chipkill import SafeGuardChipkill
from repro.core.pipeline import AccessContext
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadResult, ReadStatus
from repro.faultsim.fastpath import FAST_STREAM_SALT
from repro.faultsim.faults import FaultInstance, place_fault
from repro.faultsim.fit import FaultMode
from repro.faultsim.geometry import ModuleGeometry
from repro.faultsim.montecarlo import (
    SCOPE_CODES,
    FailureColumns,
    FailureRecord,
    MonteCarloConfig,
    _mode_categories,
    derive_outcome_table,
)
from repro.perf.model import (
    MultiSeedSummary,
    PerfConfig,
    geomean_slowdown_percent,
    run_comparison,
)
from repro.perf.organizations import BASELINE_ECC, PerfOrganization
from repro.utils import units
from repro.utils.bits import (
    extract_chip_bits,
    extract_pin_symbols,
    insert_chip_bits,
    insert_pin_symbol,
)
from repro.utils.rng import child_seeds, derive_seed, unit_uniforms

# -- multi-seed performance comparison ------------------------------------------


def run_comparison_multiseed(
    organizations: Sequence[PerfOrganization],
    seeds: Sequence[int],
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    baseline: PerfOrganization = BASELINE_ECC,
) -> Dict[str, MultiSeedSummary]:
    """Repeat the comparison across trace seeds; summarize the spread."""
    config = config or PerfConfig()
    per_org: Dict[str, List[float]] = {org.name: [] for org in organizations}
    for seed in seeds:
        seed_config = PerfConfig(
            n_cores=config.n_cores,
            instructions_per_core=config.instructions_per_core,
            warmup_instructions=config.warmup_instructions,
            seed=seed,
            engine=config.engine,
        )
        results = run_comparison(
            organizations, workloads=workloads, config=seed_config, baseline=baseline
        )
        for org in organizations:
            per_org[org.name].append(geomean_slowdown_percent(results, org.name))
    return {
        name: MultiSeedSummary(name, values) for name, values in per_org.items()
    }


# -- one-candidate rebuilds from the stored parity ---------------------------------


def rebuild_pin(line: int, pin: int, parity: int) -> int:
    """``line`` with pin ``pin``'s symbol rebuilt as the column parity XOR
    every other pin's symbol."""
    symbols = extract_pin_symbols(line, 64)
    recovered = parity
    for p, symbol in enumerate(symbols):
        if p != pin:
            recovered ^= symbol
    return insert_pin_symbol(line, pin, recovered, 64)


def rebuild_chip(line: int, mac32: int, parity: int, chip: int) -> Tuple[int, int]:
    """``(line, mac32)`` with x4 chip ``chip`` (16 = the MAC chip) rebuilt
    as the chip parity XOR every other chip's contribution."""
    contributions = [extract_chip_bits(line, c, 4, 16) for c in range(16)]
    contributions.append(mac32 & 0xFFFFFFFF)
    recovered = parity
    for c, contribution in enumerate(contributions):
        if c != chip:
            recovered ^= contribution
    if chip == 16:
        return line, recovered
    return insert_chip_bits(line, chip, recovered, 4, 16), mac32


# -- the correction searches, one candidate at a time -------------------------------


class OracleSafeGuardSECDED(SafeGuardSECDED):
    """SafeGuard-SECDED with the Section IV-C column search as one loop."""

    def _read_with_column_parity(
        self, ctx: AccessContext, address: int, raw: int, fields: dict
    ) -> ReadResult:
        parity, mac = fields["parity"], fields["mac"]

        # Eager column recovery: a permanent pin failure makes the first
        # MAC check useless; reconstruct first and check once.
        if self.columns.eager_ready:
            pin = self.columns.last
            self._iterate(ctx, pin)
            repaired = rebuild_pin(raw, pin, parity)
            if self.mac.matches(ctx, repaired, address, mac):
                if repaired == raw:
                    self.columns.note_clean()
                    return self._result(ctx, raw, ReadStatus.CLEAN)
                self.columns.note_hit(pin)
                return self._result(ctx, repaired, ReadStatus.CORRECTED_COLUMN, pin)
            self.columns.note_clean()

        # Step 1: fast-path MAC check on the raw data.
        if self.mac.matches(ctx, raw, address, mac):
            self.columns.note_clean()
            return self._result(ctx, raw, ReadStatus.CLEAN)

        # Step 2: ECC-1 single-bit correction, then re-check.
        decode = self._ecc1.correct(
            self.payload_layout.pack(data=raw, parity=parity, mac=mac), fields["ecc1"]
        )
        payload = self.payload_layout.unpack(decode.data)
        if self.mac.matches(ctx, payload["data"], address, payload["mac"]):
            self.columns.note_clean()
            return self._result(
                ctx, payload["data"], ReadStatus.CORRECTED_BIT, decode.corrected_bit
            )

        # Step 3: iterative column recovery, last known failing pin first.
        for pin in self.columns.candidates():
            self._iterate(ctx, pin)
            repaired = rebuild_pin(raw, pin, parity)
            if self.mac.matches(ctx, repaired, address, mac):
                self.columns.note_hit(pin)
                return self._result(ctx, repaired, ReadStatus.CORRECTED_COLUMN, pin)
        return self._due(ctx, raw)


class OracleSafeGuardChipkill(SafeGuardChipkill):
    """SafeGuard-Chipkill with the Section V-B/V-D chip searches as loops."""

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        fields = self.meta_layout.unpack(meta)
        mac, parity = fields["mac"], fields["parity"]
        if self.config.eager_correction and self.chips.eager_ready:
            return self._read_eager(ctx, address, raw, mac, parity)
        if self.mac.matches(ctx, raw, address, mac):
            return self._result(ctx, raw, ReadStatus.CLEAN)
        return self._search(ctx, address, raw, mac, parity)

    def _read_eager(
        self, ctx: AccessContext, address: int, raw: int, mac: int, parity: int
    ) -> ReadResult:
        # Skip the pre-correction check: reconstruct the known chip, then
        # perform the only MAC check on the repaired line (Figure 9b).
        chip = self.chips.known
        repaired_line, repaired_mac = rebuild_chip(raw, mac, parity, chip)
        self._iterate(ctx, chip)
        if self.mac.matches(ctx, repaired_line, address, repaired_mac):
            if repaired_line == raw and repaired_mac == mac:
                self.chips.reset()
                return self._result(ctx, raw, ReadStatus.CLEAN)
            self.chips.ping_pong = 0
            self._maybe_spare(address, raw, repaired_line)
            return self._result(ctx, repaired_line, ReadStatus.CORRECTED_CHIP, chip)
        # A different chip must be at fault: fall back to the full search.
        return self._search(ctx, address, raw, mac, parity, exclude=chip)

    def _search(
        self,
        ctx: AccessContext,
        address: int,
        raw: int,
        mac: int,
        parity: int,
        exclude: Optional[int] = None,
    ) -> ReadResult:
        for chip in self.chips.candidates():
            if chip == exclude:
                continue
            self._iterate(ctx, chip)
            repaired_line, repaired_mac = rebuild_chip(raw, mac, parity, chip)
            if not self.mac.matches(ctx, repaired_line, address, repaired_mac):
                continue
            if self.chips.note_repair(chip):
                return self._due(ctx, raw)
            self._maybe_spare(address, raw, repaired_line)
            return self._result(ctx, repaired_line, ReadStatus.CORRECTED_CHIP, chip)
        return self._due(ctx, raw)


class OracleSynergyStyleMAC(SynergyStyleMAC):
    """Synergy with its chip search as one loop."""

    def _correct(
        self, ctx: AccessContext, address: int, raw: int, mac: int
    ) -> ReadResult:
        parity = self._parity_region.get(address, 0)
        ctx.extra_memory_accesses = 1  # parity fetch
        # Candidate chips: 8 data chips then the MAC chip.
        for chip in range(self.N_CHIPS + 1):
            self._iterate(ctx, chip)
            if chip < self.N_CHIPS:
                others = parity ^ mac
                for c in range(self.N_CHIPS):
                    if c != chip:
                        others ^= extract_chip_bits(raw, c, 8, self.N_CHIPS)
                repaired = insert_chip_bits(raw, chip, others, 8, self.N_CHIPS)
                repaired_mac = mac
            else:
                repaired = raw
                repaired_mac = parity
                for c in range(self.N_CHIPS):
                    repaired_mac ^= extract_chip_bits(raw, c, 8, self.N_CHIPS)
            if self.mac.matches(ctx, repaired, address, repaired_mac):
                return self._result(ctx, repaired, ReadStatus.CORRECTED_CHIP, chip)
        return self._due(ctx, raw)


# -- the draw-interleaved Monte-Carlo loop -----------------------------------------


def simulate_module(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    module_index: int,
    n_faults: int,
    categories: List[Tuple[FaultMode, bool]],
    cumulative: np.ndarray,
    total_hours: float,
) -> Optional[FailureRecord]:
    """One busy module's scalar fault loop; its first failure or None.

    The reference engine's inner body, shared verbatim by the fast
    engine's multi-fault fallback so the two stay bit-identical there.
    The RNG consumption order (times, then per-arrival mode/chip/
    placement) is part of the determinism contract — do not reorder.
    """
    rng = random.Random(derive_seed(config.seed, 0x51A7, module_index))
    times = sorted(rng.uniform(0.0, total_hours) for _ in range(n_faults))
    active: List[FaultInstance] = []
    scrub = config.scrub_interval_hours
    # Earliest arrival among active *transient* faults (arrivals append in
    # time order, so the front transient is the oldest): the scrub filter
    # is a no-op until that one expires, so rebuild the list only then
    # instead of re-filtering on every arrival.
    oldest_transient: Optional[float] = None
    for time_hours in times:
        mode, transient = categories[bisect.bisect_left(cumulative, rng.random())]
        chip = rng.randrange(geometry.chips_per_rank)
        fault = place_fault(mode.scope, transient, time_hours, chip, geometry, rng)
        if (
            scrub is not None
            and oldest_transient is not None
            and time_hours - oldest_transient >= scrub
        ):
            active = [
                f
                for f in active
                if not f.transient or time_hours - f.time_hours < scrub
            ]
            oldest_transient = min(
                (f.time_hours for f in active if f.transient), default=None
            )
        outcome = evaluator.classify(active, fault)
        if outcome.is_failure:
            return FailureRecord(time_hours, outcome, fault.scope.value)
        active.append(fault)
        if transient and oldest_transient is None:
            oldest_transient = time_hours
    return None


def _interleaved_records(
    evaluator, geometry, config, fault_counts, lo, modules
) -> List[FailureRecord]:
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)
    records = []
    for local_index in modules:
        record = simulate_module(
            evaluator,
            geometry,
            config,
            lo + int(local_index),
            int(fault_counts[local_index]),
            categories,
            cumulative,
            total_hours,
        )
        if record is not None:
            records.append(record)
    return records


def simulate_range(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int = 0,
) -> FailureColumns:
    """The reference engine: every busy module through :func:`simulate_module`."""
    return FailureColumns.from_records(
        _interleaved_records(
            evaluator, geometry, config, fault_counts, lo,
            np.nonzero(fault_counts)[0],
        )
    )


def simulate_range_fast(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int = 0,
) -> FailureColumns:
    """The fast engine: single-fault modules table-classified from the
    counter streams, multi-fault modules through :func:`simulate_module`."""
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)
    counts = np.asarray(fault_counts)
    single = FailureColumns.from_records([])
    single_local = np.nonzero(counts == 1)[0]
    if single_local.size:
        indices = single_local.astype(np.uint64) + np.uint64(lo)
        base = child_seeds(
            np.uint64(derive_seed(config.seed, FAST_STREAM_SALT)), indices
        )
        times = unit_uniforms(child_seeds(base, 0)) * total_hours
        category = np.searchsorted(
            cumulative, unit_uniforms(child_seeds(base, 1)), side="left"
        )
        chips = child_seeds(base, 2) % np.uint64(geometry.chips_per_rank)
        is_ecc = (chips >= np.uint64(geometry.data_chips_per_rank)).astype(np.intp)
        table = derive_outcome_table(evaluator, geometry, categories)
        codes = table[category, is_ecc]
        scope_codes = np.array(
            [SCOPE_CODES[mode.scope.value] for mode, _ in categories], dtype=np.uint8
        )
        failing = np.nonzero(codes)[0]
        single = FailureColumns(
            times[failing], codes[failing], scope_codes[category[failing]]
        )
    multi = _interleaved_records(
        evaluator, geometry, config, counts, lo, np.nonzero(counts >= 2)[0]
    )
    return FailureColumns.concat([single, FailureColumns.from_records(multi)])
