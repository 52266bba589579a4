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
  ``random.Random(derive_seed(seed, 0x51A7, module_index))`` stream.

A shard covering global module indices ``[lo, hi)`` therefore reproduces
exactly the modules the sequential loop would have simulated, and merging
shard results (:meth:`ReliabilityResult.merge`) reconstructs the
sequential output bit-for-bit.

The scalar loop here is the *reference* engine (and the default); the
vectorized fast engine in :mod:`repro.faultsim.fastpath` — selected per
config or via ``REPRO_FAULTSIM=fast`` — classifies single-fault modules
with derived outcome tables and falls back to this loop for multi-fault
modules.
"""

from __future__ import annotations

import base64
import bisect
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.evaluators import Outcome
from repro.faultsim.faults import FaultInstance, place_fault
from repro.faultsim.fit import FAULT_MODES, FaultMode, Scope
from repro.faultsim.geometry import ModuleGeometry
from repro.switches import FAULTSIM
from repro.utils import units
from repro.utils.rng import derive_seed


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
    #: Monte-Carlo engine: ``"reference"`` (the scalar loop, bit-identical
    #: to PR 1) or ``"fast"`` (the vectorized single-fault path of
    #: :mod:`repro.faultsim.fastpath`). None defers to the
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
    """One module's first failure, as the scalar fault loop reports it."""

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
    cumulative = np.cumsum(np.asarray(weights, dtype=float))
    cumulative /= cumulative[-1]
    return categories, cumulative


def _simulate_module(
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


def simulate_range(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
) -> FailureColumns:
    """Simulate modules with global indices ``[lo, hi)``.

    ``fault_counts`` is the slice ``draw_fault_counts(...)[lo:hi]`` (or
    the full array when simulating everything). Each module is seeded
    from its *global* index, so the union of any disjoint ranges covering
    ``[0, n_modules)`` equals the sequential run.
    """
    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)

    records: List[FailureRecord] = []
    busy_modules = np.nonzero(fault_counts)[0]
    for local_index in busy_modules:
        record = _simulate_module(
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
    return FailureColumns.from_records(records)


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

    Dispatches to the scalar reference loop or the vectorized fast
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
