"""Straightforward implementations the product's faster paths must match.

- :class:`PositionalHammingKernel`, :class:`PositionalRSKernel`,
  :class:`OracleChipkillCode`, :func:`column_parity`,
  :func:`pin_symbols`, :func:`pin_symbols_to_int`, :class:`OracleSpeck64`,
  :class:`OracleLineMAC` — the codecs and the line MAC bit by bit:
  Hamming codewords assembled, read and checked one position at a time,
  Reed-Solomon checks by the LFSR and syndromes by Horner's rule,
  Chipkill symbols and pin symbols gathered one bit field at a time,
  SPECK one round call at a time and the line MAC one block at a time.
  The table-driven kernels of :mod:`repro.ecc.kernels` must equal these;
  :func:`positional_hamming` and :func:`positional_rs` swap them into a
  product codec.
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
- :func:`scalar_replay` — the perf fast engine's content pass as one
  per-access walk over plain dicts. The batched replay
  (``fastpath._batched_replay``) must return the same counters,
  outcomes and events wherever it does not decline the cell; this walk
  also counts the L1 back-invalidations that make it decline.
"""

from __future__ import annotations

import bisect
import random
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines import SynergyStyleMAC
from repro.core.chipkill import SafeGuardChipkill
from repro.core.pipeline import AccessContext
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadResult, ReadStatus
from repro.ecc.chipkill import ChipkillCode
from repro.ecc.reed_solomon import ReedSolomon
from repro.mac.linemac import LineMAC
from repro.mac.speck import Speck64, _round
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
from repro.perf import fastpath
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

# -- codecs and the line MAC, bit by bit -------------------------------------------


class PositionalHammingKernel:
    """:class:`repro.ecc.kernels.HammingKernel`'s operations as loops over
    the positional layout: positions ``1..n``, check bits at the powers
    of two, data bits in the other positions in order."""

    def __init__(self, k: int, n: int):
        self.data_positions = [pos for pos in range(1, n + 1) if pos & (pos - 1)]
        self.check_positions = [1 << i for i in range(n - k)]
        #: ``coverage[i]`` masks the data *indices* whose position has
        #: bit ``i`` set: check bit ``i``'s inputs.
        self.coverage = [
            sum(
                1 << index
                for index, pos in enumerate(self.data_positions)
                if (pos >> i) & 1
            )
            for i in range(n - k)
        ]

    def scatter_data(self, data: int) -> int:
        codeword = 0
        for index, pos in enumerate(self.data_positions):
            if (data >> index) & 1:
                codeword |= 1 << (pos - 1)
        return codeword

    def gather_data(self, codeword: int) -> int:
        data = 0
        for index, pos in enumerate(self.data_positions):
            if (codeword >> (pos - 1)) & 1:
                data |= 1 << index
        return data

    def scatter_checks(self, checks: int) -> int:
        codeword = 0
        for i, pos in enumerate(self.check_positions):
            if (checks >> i) & 1:
                codeword |= 1 << (pos - 1)
        return codeword

    def gather_checks(self, codeword: int) -> int:
        checks = 0
        for i, pos in enumerate(self.check_positions):
            checks |= ((codeword >> (pos - 1)) & 1) << i
        return checks

    def encode(self, data: int) -> int:
        checks = 0
        for i, mask in enumerate(self.coverage):
            checks |= ((data & mask).bit_count() & 1) << i
        return self.scatter_data(data) | self.scatter_checks(checks)

    def syndrome(self, codeword: int) -> int:
        """XOR of the 1-based positions of the set codeword bits."""
        syndrome = 0
        remaining = codeword
        while remaining:
            low = remaining & -remaining
            syndrome ^= low.bit_length()
            remaining ^= low
        return syndrome


def positional_hamming(code):
    """A :class:`~repro.ecc.hamming.HammingSEC` (or SECDED) with its
    kernel swapped for :class:`PositionalHammingKernel`."""
    code._kernel = PositionalHammingKernel(code.k, code.n)
    return code


def rs_generator(field, n_checks: int, fcr: int = 1) -> List[int]:
    """``g(x) = (x - alpha^fcr) ... (x - alpha^(fcr + n_checks - 1))``."""
    generator = [1]
    for i in range(n_checks):
        generator = field.poly_mul(generator, [field.alpha_pow(fcr + i), 1])
    return generator


def rs_checks(field, generator: Sequence[int], data: Sequence[int]) -> List[int]:
    """Systematic Reed-Solomon check symbols by the LFSR division of
    ``m(x) * x^(n-k)`` by ``g(x)``; data symbol 0 is the highest power."""
    n_checks = len(generator) - 1
    remainder = [0] * n_checks
    for symbol in data:
        feedback = symbol ^ remainder[-1]
        remainder = [0] + remainder[:-1]
        if feedback:
            for d in range(n_checks):
                if generator[d]:
                    remainder[d] ^= field.mul(feedback, generator[d])
    return list(reversed(remainder))


class PositionalRSKernel:
    """:class:`repro.ecc.kernels.RSKernel`'s operations symbol by symbol:
    checks by :func:`rs_checks`, syndromes by Horner's rule."""

    def __init__(self, field, n: int, k: int, fcr: int = 1):
        self.field = field
        self.n_checks = n - k
        self.fcr = fcr
        self.generator = rs_generator(field, n - k, fcr)

    def encode_checks(self, data: Sequence[int]) -> List[int]:
        return rs_checks(self.field, self.generator, data)

    def syndromes(self, received: Sequence[int]) -> List[int]:
        field = self.field
        out = []
        for j in range(self.n_checks):
            x = field.alpha_pow(self.fcr + j)
            acc = 0
            for symbol in received:
                acc = field.mul(acc, x) ^ symbol
            out.append(acc)
        return out


def positional_rs(rs: ReedSolomon) -> ReedSolomon:
    """``rs`` with its kernel swapped for :class:`PositionalRSKernel`."""
    rs._kernel = PositionalRSKernel(rs.field, rs.n, rs.k, rs.fcr)
    return rs


class OracleChipkillCode(ChipkillCode):
    """Chipkill with each beat-pair's symbols gathered chip by chip and
    its Reed-Solomon code on :class:`PositionalRSKernel`."""

    def __init__(self):
        super().__init__()
        positional_rs(self._rs)

    def _all_pair_symbols(self, line: int) -> List[List[int]]:
        out = []
        for pair in range(self.BEAT_PAIRS):
            base0 = (2 * pair) * 64
            base1 = (2 * pair + 1) * 64
            symbols = []
            for chip in range(self.DATA_CHIPS):
                low = (line >> (base0 + 4 * chip)) & 0xF
                high = (line >> (base1 + 4 * chip)) & 0xF
                symbols.append(low | (high << 4))
            out.append(symbols)
        return out


def pin_symbols(line: int, n_pins: int = 64, n_beats: int = 8) -> List[int]:
    """Pin ``j``'s symbol packs its bit of every beat, beat 0 lowest."""
    symbols = []
    for pin in range(n_pins):
        symbol = 0
        for beat in range(n_beats):
            symbol |= ((line >> (beat * n_pins + pin)) & 1) << beat
        symbols.append(symbol)
    return symbols


def pin_symbols_to_int(symbols: Sequence[int], n_beats: int = 8) -> int:
    """The inverse of :func:`pin_symbols`."""
    n_pins = len(symbols)
    line = 0
    for pin, symbol in enumerate(symbols):
        for beat in range(n_beats):
            if (symbol >> beat) & 1:
                line |= 1 << (beat * n_pins + pin)
    return line


def column_parity(line: int) -> int:
    """The XOR of a 512-bit line's 64 pin symbols."""
    parity = 0
    for symbol in pin_symbols(line):
        parity ^= symbol
    return parity


class OracleSpeck64(Speck64):
    """SPECK-64/128 one round call at a time, one block at a time."""

    def encrypt_block(self, block: int) -> int:
        y = block & 0xFFFFFFFF
        x = (block >> 32) & 0xFFFFFFFF
        for k in self._round_keys:
            x, y = _round(x, y, k)
        return (x << 32) | y

    def encrypt_blocks8(self, blocks: Sequence[int]) -> List[int]:
        return [self.encrypt_block(block) for block in blocks]


class OracleLineMAC(LineMAC):
    """The line MAC over :class:`OracleSpeck64`, every batch line by line."""

    def __init__(self, key: bytes, mac_bits: int):
        super().__init__(key, mac_bits)
        self._cipher = OracleSpeck64(key)

    def vectorizes(self, n_lines: int) -> bool:
        return False


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


# -- the perf fast engine's content pass, one access at a time ----------------------


def initial_llc_sets(
    lines: np.ndarray, dirty: np.ndarray, n_sets: int, ways: int
) -> List[dict]:
    """The LLC's warm-up residency by filling LRU sets one line at a
    time: per set, ``{line: dirty}`` in LRU -> MRU order, a line dirty if
    any of its fills was."""
    sets = [OrderedDict() for _ in range(n_sets)]
    ever_dirty: Dict[int, bool] = {}
    for line, is_dirty in zip(lines.tolist(), dirty.tolist()):
        ever_dirty[line] = ever_dirty.get(line, False) or is_dirty
        llc_set = sets[line % n_sets]
        llc_set.pop(line, None)
        llc_set[line] = True
        if len(llc_set) > ways:
            llc_set.popitem(last=False)
    return [{line: ever_dirty[line] for line in llc_set} for llc_set in sets]


def scalar_replay(
    line: np.ndarray,
    l1_index: np.ndarray,
    write: np.ndarray,
    core_of: np.ndarray,
    idx_of: np.ndarray,
    boundary: int,
    trace_lens: List[int],
    fill_lines: np.ndarray,
    fill_dirty: np.ndarray,
    pf_params: Tuple[int, int, int],
):
    """The content replay, one merged access at a time on plain dicts.

    Same arguments and return shape as ``fastpath._batched_replay``
    (uncollapsed merged columns in, ``(counters, outcome, events,
    hits_base, misses_base)`` out, event positions in merged order) and
    the same cache geometry (the ``fastpath`` module constants, read at
    call time), but it never declines: an LLC eviction of a line still
    resident in its owner's L1 back-invalidates that line, and
    ``counters["back_invalidations"]`` counts them.
    """
    l1_ways = fastpath._L1_WAYS
    l1_bits = fastpath._L1_SET_BITS
    l1_mask = (1 << l1_bits) - 1
    llc_ways = fastpath._LLC_WAYS
    llc_mask = fastpath._LLC_SETS - 1
    pf_streams, pf_degree, pf_distance = pf_params
    n_cores = len(trace_lens)
    merged_line = line.tolist()
    merged_l1_index = l1_index.tolist()
    merged_write = write.tolist()
    core_of = core_of.tolist()
    idx_of = idx_of.tolist()

    llc = initial_llc_sets(fill_lines, fill_dirty, fastpath._LLC_SETS, llc_ways)
    # Flat per-core L1 sets: index (core << l1_bits) | (line & l1_mask).
    l1: List[dict] = [{} for _ in range(n_cores << l1_bits)]
    # Prefetcher stream tables: page -> [last_line, confidence, next_prefetch].
    pf: List[dict] = [{} for _ in range(n_cores)]
    outcome = [bytearray(length) for length in trace_lens]
    events: List[List[Tuple[int, int, List[int]]]] = [[] for _ in range(n_cores)]
    counters = {"hits": 0, "misses": 0, "incl": 0, "back_invalidations": 0}

    def evict(llc_set: dict) -> Tuple[int, bool]:
        """Evict the LRU line, back-invalidating it in its owner's L1
        (address ranges are per-core disjoint, so only the owner core can
        hold it); dirty if dirty in either."""
        victim = next(iter(llc_set))
        dirty = llc_set.pop(victim)
        owner = l1[((victim >> 28) << l1_bits) | (victim & l1_mask)]
        if victim in owner:
            counters["back_invalidations"] += 1
            dirty = owner.pop(victim) or dirty
        return victim, dirty

    def replay(start: int, end: int) -> None:
        for k in range(start, end):
            line, w, c = merged_line[k], merged_write[k], core_of[k]
            l1s = l1[merged_l1_index[k]]
            if line in l1s:
                # L1 hit: refresh LRU, OR the dirty bit.
                l1s[line] = l1s.pop(line) or w
                continue
            # The stream prefetcher observes every L1 miss, before the
            # LLC probe.
            page = line >> 6
            pfc = pf[c]
            stream = pfc.pop(page, None)
            prefetches: List[int] = []
            if stream is None:
                if len(pfc) >= pf_streams:
                    del pfc[next(iter(pfc))]
                pfc[page] = [line, 0, line + pf_distance]
            else:
                pfc[page] = stream  # LRU refresh
                last_line, confidence, next_prefetch = stream
                if line == last_line + 1:
                    confidence = min(confidence + 1, 4)
                elif line != last_line:
                    confidence = max(confidence - 1, 0)
                stream[0] = line
                stream[1] = confidence
                if confidence >= 2:
                    target = max(next_prefetch, line + 1)
                    prefetches = [
                        t for t in range(target, target + pf_degree) if t >> 6 == page
                    ]
                    stream[2] = target + pf_degree
            i = idx_of[k]
            # Actions pack as (line << 3) | code.
            actions: List[int] = []
            ls = llc[line & llc_mask]
            if line in ls:
                ls[line] = ls.pop(line)  # LRU refresh (dirty unchanged)
                counters["hits"] += 1
                outcome[c][i] = fastpath.OUT_LLC
            else:
                counters["misses"] += 1
                outcome[c][i] = fastpath.OUT_DRAM
                actions.append((line << 3) | fastpath.A_DEMAND_READ)
                if len(ls) >= llc_ways:
                    victim, dirty = evict(ls)
                    if dirty:
                        actions.append((victim << 3) | fastpath.A_VICTIM_WRITE)
                ls[line] = False
            # Fill the L1 (dirty if this is a store); a dirty L1 victim
            # touches its LLC copy (an LLC hit) or, were inclusion ever
            # broken, is written back to DRAM.
            if len(l1s) >= l1_ways:
                victim = next(iter(l1s))
                if l1s.pop(victim):
                    vs = llc[victim & llc_mask]
                    if victim in vs:
                        vs.pop(victim)
                        vs[victim] = True
                        counters["hits"] += 1
                    else:
                        counters["incl"] += 1
                        actions.append((victim << 3) | fastpath.A_INCL_WRITE)
            l1s[line] = w
            for pline in prefetches:
                ps = llc[pline & llc_mask]
                if pline in ps:
                    continue
                actions.append((pline << 3) | fastpath.A_PF_READ)
                if len(ps) >= llc_ways:
                    victim, dirty = evict(ps)
                    if dirty:
                        actions.append((victim << 3) | fastpath.A_PF_VICTIM_WRITE)
                ps[pline] = False
            if actions:
                events[c].append((i, k, actions))

    replay(0, boundary)
    hits_base, misses_base = counters["hits"], counters["misses"]
    replay(boundary, len(merged_line))

    arrays = []
    for evs in events:
        offsets = np.zeros(len(evs) + 1, dtype=np.int64)
        if evs:
            np.cumsum([len(e[2]) for e in evs], out=offsets[1:])
        arrays.append(
            (
                np.array([e[0] for e in evs], dtype=np.int64),
                np.array([e[1] for e in evs], dtype=np.int64),
                offsets,
                np.array([a for e in evs for a in e[2]], dtype=np.int64),
            )
        )
    outcome_np = [np.frombuffer(out, dtype=np.uint8) for out in outcome]
    return counters, outcome_np, arrays, hits_base, misses_base
