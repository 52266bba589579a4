"""Monte-Carlo driver producing probability-of-system-failure curves.

Reproduces the paper's Section III-B methodology: N module instances are
simulated for a 7-year lifetime; faults arrive per chip as a Poisson
process with the Table III FIT rates; each arrival is placed uniformly in
the module geometry and classified by the scheme's evaluator against the
faults already present; the module's *failure time* is the first DUE or
SDC. The output is the fraction of failed modules versus time.

The paper simulates 10M devices; that is feasible here too (the
simulation is event-driven and ~93% of modules draw zero faults) but the
default is 200K modules, which already gives tight confidence intervals
for the probabilities involved. Pass ``n_modules`` to scale up, and see
:mod:`repro.faultsim.parallel` for the sharded multi-process engine that
produces bit-identical results on many cores.

Determinism contract (relied on by the parallel engine):

- per-module fault *counts* come from one batched Poisson draw seeded
  with ``derive_seed(seed, 0xFA017)`` — :func:`draw_fault_counts`;
- each busy module's faults are generated from its own
  ``random.Random(derive_seed(seed, 0x51A7, module_index))`` stream:
  every fault time (``uniform(0, lifetime)``, sorted), then per arrival
  one ``random()`` for its (mode, transient) category,
  ``randrange(chips_per_rank)`` and :func:`place_fault`'s five
  ``randrange`` draws.

A shard covering global module indices ``[lo, hi)`` therefore reproduces
exactly the modules the sequential run would have simulated, and merging
shard results (:meth:`ReliabilityResult.merge`) reconstructs the
sequential output bit-for-bit.

The engines never interleave those draws with classification. They
*replay* the streams (:func:`replay_modules`): each busy module's stream
is fetched as one block of 32-bit words, every module's fault times,
categories, chips and coordinates are decoded at once in numpy, and each
arrival that overlaps no earlier fault of its module takes its outcome
from the derived clean-module table (:func:`derive_outcome_table`; the
no-overlap contract of :mod:`repro.faultsim.evaluators`). Only the
modules that table cannot decide run the evaluator loop,
:func:`_simulate_module`, on their decoded faults. The reference engine
(:func:`simulate_range`, the default) replays every busy module; the
fast engine of :mod:`repro.faultsim.fastpath` — selected per config or
via ``REPRO_FAULTSIM=fast`` — draws single-fault modules from counter
streams and replays the multi-fault ones.
"""

from __future__ import annotations

import base64
import bisect
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.evaluators import Outcome
from repro.faultsim.faults import FaultInstance, place_fault
from repro.faultsim.fit import FAULT_MODES, FaultMode, Scope
from repro.faultsim.geometry import ModuleGeometry
from repro.switches import FAULTSIM
from repro.utils import units
from repro.utils.rng import child_seeds, derive_seed


@dataclass
class MonteCarloConfig:
    """Knobs for one reliability run."""

    n_modules: int = 200_000
    years: float = 7.0
    seed: int = 0
    fit_multiplier: float = 1.0
    #: Optional scrub interval: correctable *transient* faults older than
    #: this are dropped before each classification (FaultSim's scrubbing
    #: model). None disables scrubbing (conservative).
    scrub_interval_hours: Optional[float] = None
    #: Fault modes; defaults to Table III.
    modes: Sequence[FaultMode] = field(default_factory=lambda: list(FAULT_MODES))
    #: Evaluation grid resolution in months.
    grid_months: int = 6
    #: Monte-Carlo engine: ``"reference"`` (every busy module replayed
    #: from its own stream) or ``"fast"`` (the vectorized single-fault
    #: path of :mod:`repro.faultsim.fastpath`). None defers to the
    #: :data:`repro.switches.FAULTSIM` switch (``REPRO_FAULTSIM``). Unlike
    #: the worker and shard counts of
    #: :func:`repro.faultsim.parallel.simulate_parallel` this *does*
    #: change the science output (statistically equivalent, not
    #: bit-identical), so it is part of the fingerprint.
    engine: Optional[str] = None

    def resolved_engine(self) -> str:
        """The engine this config runs under (config > switch)."""
        return FAULTSIM.get(self.engine)

    def science_fingerprint(self, scheme: str, geometry: ModuleGeometry) -> dict:
        """The output-determining knobs, as a JSON-friendly dict.

        Used to validate checkpoints: two runs with equal fingerprints
        produce identical results no matter how they are sharded. The
        resolved engine is included so a checkpoint written by one engine
        can never be resumed by the other, and every geometry field (not
        just its name) so a resized module never reuses a checkpoint.
        """
        return {
            "scheme": scheme,
            "geometry": asdict(geometry),
            "engine": self.resolved_engine(),
            "n_modules": self.n_modules,
            "years": self.years,
            "seed": self.seed,
            "fit_multiplier": self.fit_multiplier,
            "scrub_interval_hours": self.scrub_interval_hours,
            "grid_months": self.grid_months,
            "modes": [
                [m.scope.value, m.transient_fit, m.permanent_fit]
                for m in self.modes
            ],
        }


@dataclass(frozen=True)
class FailureRecord:
    """One module's first failure, as the evaluator loop reports it."""

    time_hours: float
    outcome: Outcome
    scope: str  #: ``Scope.value`` of the triggering fault


#: Outcome <-> small integer codes of the failure columns and of the fast
#: engine's classification arrays.
OUTCOME_CODES = {Outcome.CORRECTED: 0, Outcome.DUE: 1, Outcome.SDC: 2}
CODE_OUTCOMES = (Outcome.CORRECTED, Outcome.DUE, Outcome.SDC)

#: Scope codes are indices into this tuple.
SCOPES = tuple(Scope)
SCOPE_CODES = {scope.value: code for code, scope in enumerate(SCOPES)}

_DUE_CODE = OUTCOME_CODES[Outcome.DUE]
_SDC_CODE = OUTCOME_CODES[Outcome.SDC]

#: Column names and their little-endian dtypes (the cell layout too).
_COLUMN_DTYPES = (("time_hours", "<f8"), ("outcome", "u1"), ("scope", "u1"))


@dataclass(frozen=True, eq=False)
class FailureColumns:
    """Failing modules as three parallel numpy columns, one row each.

    ``time_hours`` (float64) is the module's first-failure time,
    ``outcome`` (uint8) its :data:`OUTCOME_CODES` code (DUE or SDC) and
    ``scope`` (uint8) the triggering fault's index into :data:`SCOPES`.
    Both engines return it and shard cells store it, so no per-failure
    Python object exists between the simulation and :func:`build_result`.
    Rows are in simulation order; :func:`build_result` relies on that
    order only for the key order of ``failures_by_scope``.
    """

    time_hours: np.ndarray
    outcome: np.ndarray
    scope: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMN_DTYPES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype))
        n = len(self.time_hours)
        if len(self.outcome) != n or len(self.scope) != n:
            raise ValueError(
                f"ragged failure columns: {n} times, {len(self.outcome)} "
                f"outcomes, {len(self.scope)} scopes"
            )
        if n and (
            self.outcome.min() < _DUE_CODE
            or self.outcome.max() > _SDC_CODE
            or self.scope.max() >= len(SCOPES)
        ):
            raise ValueError("failure column holds an out-of-range code")

    def __len__(self) -> int:
        return len(self.time_hours)

    @classmethod
    def from_records(cls, records: Sequence[FailureRecord]) -> "FailureColumns":
        return cls(
            [r.time_hours for r in records],
            [OUTCOME_CODES[r.outcome] for r in records],
            [SCOPE_CODES[r.scope] for r in records],
        )

    @classmethod
    def concat(cls, parts: Sequence["FailureColumns"]) -> "FailureColumns":
        return cls(
            np.concatenate([p.time_hours for p in parts]),
            np.concatenate([p.outcome for p in parts]),
            np.concatenate([p.scope for p in parts]),
        )

    def to_cell(self) -> dict:
        """The shard-cell payload: each column as base64 little-endian bytes."""
        return {
            name: base64.b64encode(getattr(self, name).tobytes()).decode("ascii")
            for name, _ in _COLUMN_DTYPES
        }

    @classmethod
    def from_cell(cls, payload: dict) -> "FailureColumns":
        """Inverse of :meth:`to_cell`; ``ValueError`` on a damaged payload
        (bad base64, ragged columns, an out-of-range code)."""
        return cls(
            *(
                np.frombuffer(base64.b64decode(payload[name], validate=True), dtype)
                for name, dtype in _COLUMN_DTYPES
            )
        )


@dataclass
class ReliabilityResult:
    """Failure statistics for one scheme."""

    scheme: str
    n_modules: int
    years: float
    grid_hours: List[float]
    fail_probability: List[float]  #: P(failed by grid point)
    n_failed: int
    n_due: int
    n_sdc: int
    failures_by_scope: Dict[str, int]
    #: Sorted first-failure times (hours). Carried so that shard results
    #: merge exactly: the merged curve is recomputed from the pooled
    #: times, not averaged from per-shard curves.
    fail_times: List[float] = field(default_factory=list)

    @property
    def final_fail_probability(self) -> float:
        return self.fail_probability[-1] if self.fail_probability else 0.0

    def confidence_interval(self, z: float = 1.96) -> "Tuple[float, float]":
        """Wilson score interval for the final failure probability.

        The paper runs 10M devices; at the default 200K the interval
        quantifies how much of any scheme-to-scheme difference is noise.
        """
        n = self.n_modules
        if n == 0:
            return (0.0, 0.0)
        p = self.final_fail_probability
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        margin = (z / denom) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
        return (max(0.0, centre - margin), min(1.0, centre + margin))

    def differs_significantly_from(self, other: "ReliabilityResult") -> bool:
        """True when the two final probabilities' 95% intervals disjoint."""
        low_a, high_a = self.confidence_interval()
        low_b, high_b = other.confidence_interval()
        return high_a < low_b or high_b < low_a

    def probability_at_years(self, years: float) -> float:
        """Interpolated failure probability at a point in time.

        Linear interpolation between the evaluation-grid points, with the
        implicit origin (0, 0) before the first point; clamped to the
        final probability past the end of the grid and to 0 before t=0.
        """
        if not self.grid_hours:
            return 0.0
        hours = years * units.HOURS_PER_YEAR
        if hours <= 0.0:
            return 0.0
        if hours >= self.grid_hours[-1]:
            return self.fail_probability[-1]
        index = bisect.bisect_right(self.grid_hours, hours)
        if index == 0:
            t_left, p_left = 0.0, 0.0
        else:
            t_left = self.grid_hours[index - 1]
            p_left = self.fail_probability[index - 1]
            if hours == t_left:  # exactly on a grid point: its value
                return p_left
        t_right = self.grid_hours[index]
        p_right = self.fail_probability[index]
        fraction = (hours - t_left) / (t_right - t_left)
        return p_left + fraction * (p_right - p_left)

    @classmethod
    def merge(cls, parts: Sequence["ReliabilityResult"]) -> "ReliabilityResult":
        """Pool shard results into one, bit-identical to a sequential run.

        The failure-probability curve is recomputed from the pooled
        failure times over the pooled module count — exactly the
        computation :func:`simulate` performs — so merging is associative
        and order-independent, and the Wilson interval of the merged
        result is the pooled-n interval. All parts must describe the same
        scheme, lifetime, and evaluation grid.
        """
        if not parts:
            raise ValueError("cannot merge zero ReliabilityResult shards")
        head = parts[0]
        for part in parts[1:]:
            if part.scheme != head.scheme:
                raise ValueError(
                    f"scheme mismatch: {part.scheme!r} != {head.scheme!r}"
                )
            if part.years != head.years or part.grid_hours != head.grid_hours:
                raise ValueError("evaluation grid mismatch between shards")
        n_modules = sum(p.n_modules for p in parts)
        fail_times = sorted(t for p in parts for t in p.fail_times)
        by_scope: Dict[str, int] = {}
        for part in parts:
            for scope, count in part.failures_by_scope.items():
                by_scope[scope] = by_scope.get(scope, 0) + count
        fail_probability = [
            bisect.bisect_right(fail_times, t) / n_modules if n_modules else 0.0
            for t in head.grid_hours
        ]
        return cls(
            scheme=head.scheme,
            n_modules=n_modules,
            years=head.years,
            grid_hours=list(head.grid_hours),
            fail_probability=fail_probability,
            n_failed=sum(p.n_failed for p in parts),
            n_due=sum(p.n_due for p in parts),
            n_sdc=sum(p.n_sdc for p in parts),
            failures_by_scope=by_scope,
            fail_times=fail_times,
        )


def merge_results(parts: Sequence[ReliabilityResult]) -> ReliabilityResult:
    """Module-level alias for :meth:`ReliabilityResult.merge`."""
    return ReliabilityResult.merge(parts)


#: Modules per Poisson call of :func:`draw_fault_counts`.
_DRAW_CHUNK = 1 << 16


def draw_fault_counts(
    config: MonteCarloConfig, geometry: ModuleGeometry
) -> np.ndarray:
    """The single batched Poisson draw of per-module fault counts.

    One array for the whole population, seeded independently of the
    per-module streams; shards slice it by global module index so any
    sharding reproduces the sequential counts exactly.

    The counts are stored one byte per module (``uint8``, widened to
    ``int64`` only if a count exceeds 255) and drawn in chunks from the
    one generator, which yields the same values as a single call. So the
    population never exists as 8 bytes per module: every run redraws it,
    and an 8 MB array per million modules, allocated and freed once per
    run, leaves a campaign's peak memory to heap fragmentation (6.5 MiB
    apart between identical runs of Figures 6 and 10).
    """
    total_hours = config.years * units.HOURS_PER_YEAR
    # Per-chip arrival rate across all modes (events per hour).
    lam_chip = (
        sum(m.total_fit for m in config.modes)
        * config.fit_multiplier
        / units.FIT_HOURS
    )
    lam_module = lam_chip * geometry.total_chips * total_hours
    np_rng = np.random.default_rng(derive_seed(config.seed, 0xFA017))
    counts = np.empty(config.n_modules, dtype=np.uint8)
    for lo in range(0, config.n_modules, _DRAW_CHUNK):
        chunk = np_rng.poisson(lam_module, min(_DRAW_CHUNK, config.n_modules - lo))
        if counts.dtype == np.uint8 and chunk.max() > np.iinfo(np.uint8).max:
            counts = counts.astype(np.int64)
        counts[lo : lo + len(chunk)] = chunk
    return counts


def _mode_categories(
    config: MonteCarloConfig,
) -> Tuple[List[Tuple[FaultMode, bool]], np.ndarray]:
    """Categorical distribution over (mode, transient) pairs."""
    categories: List[Tuple[FaultMode, bool]] = []
    weights: List[float] = []
    for mode in config.modes:
        if mode.transient_fit > 0:
            categories.append((mode, True))
            weights.append(mode.transient_fit)
        if mode.permanent_fit > 0:
            categories.append((mode, False))
            weights.append(mode.permanent_fit)
    if not categories:
        raise ValueError("faults arrived but no fault mode has a positive FIT")
    cumulative = np.cumsum(np.asarray(weights, dtype=float))
    cumulative /= cumulative[-1]
    return categories, cumulative


# -- derived outcome tables ------------------------------------------------------

#: Placements probed per table cell; a clean-module outcome that varies
#: with position would make the table lookup unsound, so disagreement
#: raises instead of silently mis-classifying.
_PROBES_PER_CELL = 3


def derive_outcome_table(
    evaluator,
    geometry: ModuleGeometry,
    categories: Sequence[Tuple[FaultMode, bool]],
) -> np.ndarray:
    """Clean-module outcome codes, derived by probing the evaluator.

    Returns a ``(len(categories), 2)`` uint8 array of
    :data:`OUTCOME_CODES` indexed by ``[category, is_ecc_chip]``. The
    evaluator is the single source of truth: each cell is
    ``evaluator.classify([], fault)`` for a fault of that category placed
    on a data (resp. ECC) chip. Several random placements are probed per
    cell and must agree — the clean-module outcome contract is
    *(scope, is-ECC-chip)* only. Under the no-overlap contract of
    :mod:`repro.faultsim.evaluators` the cell is also the outcome of any
    arrival that overlaps no fault already present.
    """
    probe_rng = random.Random(0xDE81)
    data_chip = 0
    ecc_chip = (
        geometry.data_chips_per_rank
        if geometry.ecc_chips_per_rank > 0
        else data_chip
    )
    table = np.zeros((len(categories), 2), dtype=np.uint8)
    for index, (mode, transient) in enumerate(categories):
        for is_ecc, chip in ((0, data_chip), (1, ecc_chip)):
            outcomes = {
                evaluator.classify(
                    [],
                    place_fault(mode.scope, transient, 0.0, chip, geometry, probe_rng),
                )
                for _ in range(_PROBES_PER_CELL)
            }
            if len(outcomes) != 1:
                raise ValueError(
                    f"{type(evaluator).__name__} clean-module outcome for "
                    f"scope={mode.scope.value} is_ecc={bool(is_ecc)} is "
                    f"position-dependent ({sorted(o.value for o in outcomes)}); "
                    "the vectorized engine cannot table-classify it"
                )
            table[index, is_ecc] = OUTCOME_CODES[outcomes.pop()]
    return table


def outcome_table(evaluator, geometry: ModuleGeometry, config) -> Optional[np.ndarray]:
    """:func:`derive_outcome_table` for ``config``'s fault categories.

    None when the evaluator's clean-module outcome is position-dependent;
    every busy module then goes through :func:`_simulate_module`.
    """
    categories, _ = _mode_categories(config)
    try:
        return derive_outcome_table(evaluator, geometry, categories)
    except ValueError:
        return None


# -- the per-module streams, replayed --------------------------------------------

#: Salt of the per-module streams: ``derive_seed(seed, 0x51A7, index)``.
MODULE_STREAM_SALT = 0x51A7

#: A module's first block holds this many 32-bit words per fault, plus
#: one fault's worth. A fault takes ~16 on average: two for its time, two
#: for its category and six ``randrange`` draws of one word per try (at
#: most two tries on average). On the modules of a seed-3
#: ``reliability-mc`` pass 0.17% ran short at 16 (10% at 12, none at 24)
#: and were redrawn with twice the block; 16, 20 and 24 ran the pass
#: within 1% of each other.
_WORDS_PER_FAULT = 16

#: Modules of one fault count decoded together. On a seed-3
#: ``reliability-mc`` pass (CPU time, best of 8) 256 ran 12% slower than
#: 1,024 and 2,048 ran 2% faster with twice the arrays.
_CHUNK_MODULES = 1024

#: Busy modules replayed together, so a large unsharded run holds a few
#: megabytes of per-module arrays rather than tens.
_WINDOW_MODULES = 1 << 16

#: Words each ``randrange`` draw tests at once. A try fails with
#: probability at most 1/2, so a window of 6 misses about once in 64
#: draws; 4 and 8 ran a seed-3 ``reliability-mc`` pass 3-6% slower.
_LOOKAHEAD = 6

#: ``random.random()``: ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.
_TWO_26 = 67108864.0
_TWO_M53 = 1.0 / 9007199254740992.0


def _block_words(n_faults: int) -> int:
    return _WORDS_PER_FAULT * n_faults + _WORDS_PER_FAULT


def _draw_words(seeds: Sequence[int], n_words: int) -> np.ndarray:
    """The first ``n_words`` 32-bit outputs of ``random.Random(s)`` per seed.

    ``getrandbits(32 * n)`` fills its result from the least significant
    word up with successive ``getrandbits(32)`` outputs, so its
    little-endian bytes are the words in draw order. One generator is
    re-seeded per module.
    """
    rng = random.Random()
    # The C seeding under random.Random.seed: for an int it is the whole
    # of that method but for clearing the gauss cache.
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    n_bits, n_bytes = 32 * n_words, 4 * n_words
    blocks = []
    for seed in seeds:
        reseed(seed)
        blocks.append(getrandbits(n_bits).to_bytes(n_bytes, "little"))
    return np.frombuffer(b"".join(blocks), dtype="<u4").reshape(len(seeds), n_words)


class _Replay:
    """Decode and classify busy modules from their per-module streams.

    Exact to the draw-interleaved loop that seeds one ``random.Random``
    per module and draws, in order: every fault time
    (``uniform(0, lifetime)``, then sorted), then per arrival one
    ``random()`` for its category, ``randrange(chips_per_rank)`` and
    :func:`place_fault`'s five ``randrange`` draws (rank, bank, row,
    column, bit). Each ``randrange(n)`` is CPython's
    ``getrandbits(n.bit_length())`` rejection loop, which for ``n < 2**32``
    takes one word per try, shifted right by ``32 - n.bit_length()``.

    An arrival that overlaps no earlier fault of its module takes its
    clean-module outcome from the derived table (the no-overlap contract
    of :mod:`repro.faultsim.evaluators`). A module whose first table
    failure precedes its first overlapping arrival, or that has neither,
    is decided without its faults ever becoming objects; the rest go
    through :func:`_simulate_module` on their decoded faults.
    """

    def __init__(self, evaluator, geometry, config, table: Optional[np.ndarray]):
        self.evaluator = evaluator
        self.geometry = geometry
        self.scrub = config.scrub_interval_hours
        self.total_hours = config.years * units.HOURS_PER_YEAR
        self.base_seed = np.uint64(derive_seed(config.seed, MODULE_STREAM_SALT))
        categories, self.cumulative = _mode_categories(config)
        self.table = table
        self.kinds = [(mode.scope, transient) for mode, transient in categories]
        self.scope_codes = np.array(
            [SCOPE_CODES[scope.value] for scope, _ in self.kinds], dtype=np.uint8
        )
        # Each category's wildcards among (rank, bank, row, col, bit),
        # probed from place_fault so scope semantics stay there.
        probe = random.Random(0)
        placed = [
            place_fault(scope, transient, 0.0, 0, geometry, probe)
            for scope, transient in self.kinds
        ]
        self.wild = np.array(
            [[v is None for v in (f.rank, f.bank, f.row, f.col, f.bit)] for f in placed]
        )
        # The six randrange draws per arrival: chip, then place_fault's.
        sizes = (
            geometry.chips_per_rank,
            geometry.ranks,
            geometry.banks,
            geometry.rows,
            geometry.cols,
            geometry.bits_per_chip,
        )
        self.dims = [(size, 32 - size.bit_length()) for size in sizes]
        self.shifts = np.array([shift for _, shift in self.dims])[:, None]

    def run(self, modules: np.ndarray, counts: np.ndarray) -> FailureColumns:
        """Failure columns of ``modules`` (global indices, ascending) with
        ``counts`` faults each, rows in module order."""
        n = len(modules)
        self.time = np.zeros(n, dtype=np.float64)
        self.outcome = np.zeros(n, dtype=np.uint8)
        self.scope = np.zeros(n, dtype=np.uint8)
        self.seeds = child_seeds(self.base_seed, modules.astype(np.uint64))
        order = np.argsort(counts, kind="stable")
        ordered = counts[order]
        starts = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), n]
        # (fault count, rows, block words); modules that run short of
        # words come back with twice the block.
        buckets = [
            (int(ordered[lo]), order[lo:hi], _block_words(int(ordered[lo])))
            for lo, hi in zip(starts[:-1], starts[1:])
        ]
        while buckets:
            n_faults, rows, n_words = buckets.pop()
            short = [
                self._chunk(rows[lo : lo + _CHUNK_MODULES], n_faults, n_words)
                for lo in range(0, len(rows), _CHUNK_MODULES)
            ]
            short = np.concatenate(short)
            if short.size:
                buckets.append((n_faults, short, 2 * n_words))
        failed = np.flatnonzero(self.outcome)
        return FailureColumns(self.time[failed], self.outcome[failed], self.scope[failed])

    def _chunk(self, rows: np.ndarray, n: int, n_words: int) -> np.ndarray:
        """Decode and classify one chunk of modules with ``n`` faults each;
        returns the rows that ran short of words, unclassified."""
        times, category, draws, short = self.decode(
            self.seeds[rows].tolist(), n, n_words
        )
        ok = ~short
        self._classify(rows[ok], times[ok], category[ok], draws[:, ok], n)
        return rows[short]

    def decode(self, seeds: Sequence[int], n: int, n_words: int):
        """``n`` arrivals per stream, decoded from its first ``n_words`` words.

        Returns ``times`` and ``category`` as ``(module, arrival)`` arrays
        (times sorted, categories indexing ``self.kinds``), ``draws``
        as a ``(draw, module, arrival)`` int64 array of the six
        ``randrange`` results (chip, rank, bank, row, col, bit), and
        ``short``, the modules whose ``n`` arrivals need more words; their
        rows hold nothing meaningful.
        """
        m = len(seeds)
        # Padding words every draw rejects keep each read in range; a
        # module that runs short ends past its block.
        width = n_words + _LOOKAHEAD + 3
        words = np.full((m, width), 0xFFFFFFFF, dtype=np.uint32)
        words[:, :n_words] = _draw_words(seeds, n_words)
        a = words[:, 0 : 2 * n : 2] >> 5
        b = words[:, 1 : 2 * n : 2] >> 6
        times = np.sort(self.total_hours * ((a * _TWO_26 + b) * _TWO_M53), axis=1)
        # Positions are flat indices into ``words``.
        flat = words.reshape(-1)
        base = np.arange(m) * width
        end = base + n_words
        ahead = np.arange(_LOOKAHEAD)
        pos = base + 2 * n
        starts = np.empty((n, m), dtype=np.intp)  # each arrival's category words
        taken = np.empty((n, len(self.dims), m), dtype=np.intp)
        for j in range(n):
            starts[j] = pos
            pos = pos + 2
            for d, (size, shift) in enumerate(self.dims):
                taken[j, d] = q = _first_accepted(flat, pos, end, ahead, size, shift)
                pos = q + 1
        r = ((flat[starts] >> 5) * _TWO_26 + (flat[starts + 1] >> 6)) * _TWO_M53
        category = np.searchsorted(self.cumulative, r.T, side="left")
        draws = (flat[taken] >> self.shifts).transpose(1, 2, 0).astype(np.int64)
        return times, category, draws, pos > end

    def _classify(self, rows, times, category, draws, n: int) -> None:
        """Record the first failure of each decoded module in ``rows``."""
        m = len(rows)
        undecided = np.ones(m, dtype=bool)
        if self.table is not None:
            is_ecc = (draws[0] >= self.geometry.data_chips_per_rank).astype(np.intp)
            codes = self.table[category, is_ecc]
            # Arrival j overlaps an earlier arrival i when rank, bank, row
            # and line (col // 8, as FaultInstance.overlaps has it) each
            # match or either is a wildcard.
            wild = self.wild[category]  # (module, arrival, coordinate)
            hit = np.triu(np.ones((n, n), dtype=bool), 1)  # [earlier, later]
            for c, draw in enumerate(draws[1:5]):
                key = draw // 8 if c == 3 else draw
                w = wild[:, :, c]
                hit = hit & (
                    (key[:, :, None] == key[:, None, :]) | w[:, :, None] | w[:, None, :]
                )
            overlapped = hit.any(axis=1)  # (module, arrival)
            first_overlap = np.where(overlapped.any(axis=1), overlapped.argmax(axis=1), n)
            failing = codes != 0
            first_failure = np.where(failing.any(axis=1), failing.argmax(axis=1), n)
            undecided = (first_overlap <= first_failure) & (first_overlap < n)
            decided = np.flatnonzero(~undecided & (first_failure < n))
            at = first_failure[decided]
            target = rows[decided]
            self.time[target] = times[decided, at]
            self.outcome[target] = codes[decided, at]
            self.scope[target] = self.scope_codes[category[decided, at]]
        pending = np.flatnonzero(undecided)
        if not pending.size:
            return
        # The undecided modules' faults as objects: wildcards become None.
        coords = draws[1:, pending].transpose(1, 2, 0).astype(object)
        coords[self.wild[category[pending]]] = None
        # Looked up per call, so instrumentation that wraps the module's
        # _simulate_module sees every undecided module.
        simulate_module = _simulate_module
        kinds = self.kinds
        for row, module_times, module_categories, chips, module_coords in zip(
            rows[pending].tolist(),
            times[pending].tolist(),
            category[pending].tolist(),
            draws[0, pending].tolist(),
            coords.tolist(),
        ):
            faults = (
                FaultInstance(*kinds[c], time_hours, chip, *xyz)
                for time_hours, c, chip, xyz in zip(
                    module_times, module_categories, chips, module_coords
                )
            )
            record = simulate_module(self.evaluator, faults, self.scrub)
            if record is not None:
                self.time[row] = record.time_hours
                self.outcome[row] = OUTCOME_CODES[record.outcome]
                self.scope[row] = SCOPE_CODES[record.scope]


def _first_accepted(
    flat: np.ndarray,
    pos: np.ndarray,
    end: np.ndarray,
    ahead: np.ndarray,
    size: int,
    shift: int,
) -> np.ndarray:
    """Per module, the first word at or after ``pos`` that ``randrange(size)``
    accepts (``word >> shift < size``), or ``end`` if none is left.

    Tests the ``len(ahead)`` words from ``pos`` at once; the rare module
    whose whole window is rejected tries the next window.
    """
    ok = (flat[pos[:, None] + ahead] >> shift) < size
    q = pos + ok.argmax(axis=1)
    missed = ~ok.any(axis=1)
    if missed.any():
        todo = np.flatnonzero(missed)
        start = pos[todo] + len(ahead)
        while todo.size:
            past = start >= end[todo]
            q[todo[past]] = end[todo[past]]
            todo, start = todo[~past], start[~past]
            ok = (flat[start[:, None] + ahead] >> shift) < size
            hit = ok.any(axis=1)
            q[todo[hit]] = start[hit] + ok[hit].argmax(axis=1)
            todo, start = todo[~hit], start[~hit] + len(ahead)
    return q


def _simulate_module(
    evaluator,
    faults: Iterable[FaultInstance],
    scrub_interval_hours: Optional[float],
) -> Optional[FailureRecord]:
    """Classify one module's time-ordered faults; its first failure or None.

    Each arrival is classified against the faults still present: with a
    scrub interval, correctable *transient* faults older than it are
    dropped first (FaultSim's scrubbing model).
    """
    active: List[FaultInstance] = []
    scrub = scrub_interval_hours
    # Earliest arrival among active *transient* faults (arrivals append in
    # time order, so the front transient is the oldest): the scrub filter
    # is a no-op until that one expires, so rebuild the list only then
    # instead of re-filtering on every arrival.
    oldest_transient: Optional[float] = None
    for fault in faults:
        time_hours = fault.time_hours
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
        if fault.transient and oldest_transient is None:
            oldest_transient = time_hours
    return None


def replay_modules(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int,
    busy: np.ndarray,
    table: Optional[np.ndarray],
) -> FailureColumns:
    """Failure columns of the local modules ``busy`` (ascending), replayed
    from their ``derive_seed(seed, 0x51A7, lo + i)`` streams.

    ``table`` is the evaluator's :func:`derive_outcome_table` for
    ``config``'s categories, or None to classify every module through
    :func:`_simulate_module`. Rows are in module order.
    """
    if not busy.size:
        return FailureColumns.from_records([])
    replay = _Replay(evaluator, geometry, config, table)
    counts = np.asarray(fault_counts)
    return FailureColumns.concat(
        [
            replay.run(window + lo, counts[window])
            for window in (
                busy[start : start + _WINDOW_MODULES]
                for start in range(0, len(busy), _WINDOW_MODULES)
            )
        ]
    )


def simulate_range(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> FailureColumns:
    """Simulate modules with global indices ``[lo, hi)``.

    ``fault_counts`` is the slice ``draw_fault_counts(...)[lo:hi]`` (or
    the full array when simulating everything). Each module is seeded
    from its *global* index, so the union of any disjoint ranges covering
    ``[0, n_modules)`` equals the sequential run. Every busy module is
    replayed (:func:`replay_modules`); an evaluator whose clean-module
    outcome is position-dependent gets no table, so all its modules go
    through :func:`_simulate_module`. ``table`` is the run's
    :func:`outcome_table` when the caller derived it once for all its
    ranges; None derives it here.
    """
    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
    busy = np.flatnonzero(fault_counts)
    if not busy.size:
        return FailureColumns.from_records([])
    if table is None:
        table = outcome_table(evaluator, geometry, config)
    return replay_modules(evaluator, geometry, config, fault_counts, lo, busy, table)


def build_result(
    scheme: str,
    config: MonteCarloConfig,
    failures: FailureColumns,
    n_modules: Optional[int] = None,
) -> ReliabilityResult:
    """Fold failure columns into a :class:`ReliabilityResult`.

    ``n_modules`` defaults to ``config.n_modules``; shard results pass
    their own population slice size so that merging re-weights exactly.
    An empty population gives an all-zero curve.
    """
    n_modules = config.n_modules if n_modules is None else n_modules
    total_hours = config.years * units.HOURS_PER_YEAR
    n_points = max(1, int(config.years * 12 / config.grid_months))
    grid_hours = [(i + 1) * total_hours / n_points for i in range(n_points)]
    fail_times = np.sort(failures.time_hours)
    failed_by = np.searchsorted(fail_times, grid_hours, side="right").tolist()
    fail_probability = [
        count / n_modules if n_modules else 0.0 for count in failed_by
    ]

    # Scope counts keyed in order of first appearance, as the records
    # arrived from the simulation.
    codes, first, counts = np.unique(
        failures.scope, return_index=True, return_counts=True
    )
    by_scope = {
        SCOPES[codes[i]].value: int(counts[i]) for i in np.argsort(first)
    }
    n_due = int(np.count_nonzero(failures.outcome == _DUE_CODE))

    return ReliabilityResult(
        scheme=scheme,
        n_modules=n_modules,
        years=config.years,
        grid_hours=grid_hours,
        fail_probability=fail_probability,
        n_failed=len(failures),
        n_due=n_due,
        n_sdc=len(failures) - n_due,
        failures_by_scope=by_scope,
        fail_times=fail_times.tolist(),
    )


def scheme_name(evaluator) -> str:
    """The display name the results carry for one evaluator."""
    return getattr(evaluator, "name", type(evaluator).__name__)


def simulate(
    evaluator,
    geometry: ModuleGeometry,
    config: Optional[MonteCarloConfig] = None,
) -> ReliabilityResult:
    """Run the Monte-Carlo reliability simulation for one scheme.

    Dispatches to the reference engine or the vectorized fast
    engine according to ``config.engine`` / the ``FAULTSIM`` switch (see
    :mod:`repro.faultsim.fastpath`). Both engines draw the module
    population from the same batched Poisson stream.
    """
    from repro.faultsim import fastpath

    config = config or MonteCarloConfig()
    fault_counts = draw_fault_counts(config, geometry)
    if config.resolved_engine() == "fast":
        failures = fastpath.simulate_range_fast(
            evaluator, geometry, config, fault_counts
        )
    else:
        failures = simulate_range(evaluator, geometry, config, fault_counts)
    return build_result(scheme_name(evaluator), config, failures)
