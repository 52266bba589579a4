"""Sharded, checkpointable Monte-Carlo engine.

Splits the module population into deterministic shards and runs them
through the generic campaign core (:mod:`repro.campaign`). Because every
module draws from its own seed stream (``derive_seed(seed, 0x51A7,
global_index)``) and the per-module fault counts come from one batched
Poisson draw (:func:`repro.faultsim.montecarlo.draw_fault_counts`), a
shard covering global indices ``[lo, hi)`` simulates exactly the modules
the sequential loop would have, and merging the shard results
(:meth:`ReliabilityResult.merge`) reproduces :func:`simulate`
**bit-for-bit** — worker count and shard count never change the science.

Robustness and observability (all supplied by the shared core):

- ``checkpoint_dir`` writes one fingerprint-verified cell per completed
  shard through the unified :class:`repro.campaign.ResultStore`, named
  ``faultsim-<digest>.json`` like every other family's cells and logged
  in the store's index, so runs of different schemes, scales or engines
  share one directory; a killed run restarted with the same config
  loads verified cells and only recomputes the missing (or corrupted /
  stale) shards. A shard's result is its :class:`FailureColumns`,
  stored as base64 column bytes, and the population's Poisson counts
  are drawn only once some shard actually has to run.
- ``progress`` receives a :class:`ProgressStats` snapshot after every
  shard completes (modules/sec, ETA, failures so far, and — when a
  resume rejected checkpoints — why: corrupt vs. stale).

The worker count is the ``workers`` argument, else the
:data:`repro.switches.WORKERS` switch (``REPRO_WORKERS``), else 1
(in-process).

The engine (the reference replay of every busy module vs. the
vectorized fast path of :mod:`repro.faultsim.fastpath`) is resolved once
per run and recorded in every shard's fingerprint; both engines are shard-invariant, and a
resume never mixes modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Union

import numpy as np

from repro.campaign import (
    Campaign,
    CampaignProgress,
    ProgressBase,
    resolve_workers,
    run_campaign,
)
from repro.faultsim import fastpath
from repro.faultsim.geometry import ModuleGeometry
from repro.faultsim.montecarlo import (
    FailureColumns,
    MonteCarloConfig,
    ReliabilityResult,
    build_result,
    draw_fault_counts,
    outcome_table,
    scheme_name,
    simulate_range,
)

ProgressCallback = Callable[["ProgressStats"], None]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[lo, hi)`` of the module population."""

    index: int
    lo: int
    hi: int

    @property
    def n_modules(self) -> int:
        return self.hi - self.lo


@dataclass
class ProgressStats(ProgressBase):
    """Snapshot handed to the progress callback after each shard.

    A thin naming layer over :class:`repro.campaign.ProgressBase`: the
    rate/ETA/fraction accounting lives in the core, shared with every
    other campaign engine.
    """

    shards_done: int
    shards_total: int
    shards_from_checkpoint: int
    modules_done: int
    modules_total: int
    failures_so_far: int
    elapsed_s: float
    rejected_corrupt: int = 0
    rejected_stale: int = 0

    ITEM_NOUN = "shard"
    RATE_NOUN = "modules"

    items_done = property(lambda self: self.shards_done)
    items_total = property(lambda self: self.shards_total)
    items_from_store = property(lambda self: self.shards_from_checkpoint)
    units_done = property(lambda self: self.modules_done)
    units_total = property(lambda self: self.modules_total)
    modules_per_sec = property(lambda self: self.rate)

    def _trailer(self) -> str:
        return f"failures {self.failures_so_far}"


def plan_shards(n_modules: int, n_shards: int) -> List[Shard]:
    """Split ``[0, n_modules)`` into ``n_shards`` near-equal slices.

    Deterministic in its inputs (resume depends on the plan being
    reproducible); every module lands in exactly one shard.
    """
    if n_modules < 0:
        raise ValueError(f"n_modules must be >= 0, got {n_modules}")
    n_shards = max(1, min(n_shards, max(1, n_modules)))
    base, extra = divmod(n_modules, n_shards)
    shards: List[Shard] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(Shard(index=index, lo=lo, hi=hi))
        lo = hi
    return shards


class _Population:
    """One run's per-module Poisson fault counts, drawn on first use.

    Shared by the run's shard items, so a resume in which every shard
    loads from the store never draws the population at all.
    """

    def __init__(self, config: MonteCarloConfig, geometry: ModuleGeometry):
        self.config = config
        self.geometry = geometry
        self._counts: Optional[np.ndarray] = None

    def counts(self, shard: Shard) -> np.ndarray:
        if self._counts is None:
            self._counts = draw_fault_counts(self.config, self.geometry)
        return self._counts[shard.lo : shard.hi]


@dataclass(frozen=True, eq=False)
class _ShardItem:
    """A shard plus the source of its slice of the Poisson fault counts.

    ``source`` is the run's lazily drawn :class:`_Population` or, once
    pickled, the shard's own slice: pickling materializes the slice, so
    a pool task ships only the modules it simulates, never the whole
    population's array.
    """

    shard: Shard
    source: Union[_Population, np.ndarray]

    @property
    def counts(self) -> np.ndarray:
        if isinstance(self.source, _Population):
            return self.source.counts(self.shard)
        return self.source

    def __reduce__(self):
        return (_ShardItem, (self.shard, self.counts))

    @property
    def index(self) -> int:
        return self.shard.index

    @property
    def key(self) -> tuple:
        return (self.shard.index, self.shard.lo, self.shard.hi)


class _FaultSimCampaign(Campaign):
    """Monte-Carlo reliability as a :class:`repro.campaign.Campaign`."""

    name = "faultsim"

    def __init__(
        self,
        evaluator,
        geometry: ModuleGeometry,
        config: MonteCarloConfig,
        engine: str,
        base_fingerprint: dict,
    ):
        self.evaluator = evaluator
        self.geometry = geometry
        self.config = config
        self.engine = engine
        self.base_fingerprint = base_fingerprint
        # The engine stays out of the index key, as it does of perf's.
        self.config_key = (base_fingerprint["scheme"], config.fit_multiplier, config.seed)

    def fingerprint(self, item: _ShardItem) -> dict:
        shard = item.shard
        return {
            **self.base_fingerprint,
            "shard": {"index": shard.index, "lo": shard.lo, "hi": shard.hi},
        }

    @cached_property
    def table(self) -> Optional[np.ndarray]:
        """The run's clean-module outcome table, derived on this
        process's first shard and handed to every shard after it (None,
        for a position-dependent evaluator, leaves each shard to find
        that out again)."""
        return outcome_table(self.evaluator, self.geometry, self.config)

    def run_item(self, item: _ShardItem) -> FailureColumns:
        # ``engine`` was resolved once by the coordinator and travels
        # with the campaign, so worker processes never re-consult the
        # ``FAULTSIM`` switch.
        simulate_fn = (
            fastpath.simulate_range_fast
            if self.engine == "fast"
            else simulate_range
        )
        return simulate_fn(
            self.evaluator,
            self.geometry,
            self.config,
            item.counts,
            item.shard.lo,
            item.shard.hi,
            table=self.table,
        )

    def serialize_result(self, item, failures: FailureColumns) -> dict:
        return failures.to_cell()

    def deserialize_result(self, item, payload) -> FailureColumns:
        return FailureColumns.from_cell(payload)

    def item_units(self, item: _ShardItem) -> int:
        return item.shard.n_modules

    def result_failures(self, failures: FailureColumns) -> int:
        return len(failures)


def simulate_parallel(
    evaluator,
    geometry: ModuleGeometry,
    config: Optional[MonteCarloConfig] = None,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> ReliabilityResult:
    """Sharded equivalent of :func:`simulate`; identical output.

    Neither ``workers`` nor ``shards`` (None: a few per worker) changes
    the science output. ``checkpoint_dir`` keeps one store cell per
    shard, so a re-run with the same config resumes, skipping shards whose
    cells verify. With ``workers == 1`` the shards run in-process
    (no pool), which still exercises checkpointing and progress
    reporting. ``store`` accepts a ready store object (e.g. a networked
    :class:`repro.campaign.RemoteResultStore`); it takes precedence over
    ``checkpoint_dir``.
    """
    config = config or MonteCarloConfig()
    workers = resolve_workers(workers)
    if shards is None:
        # A few shards per worker keeps the pool busy through stragglers
        # and gives checkpoint/progress useful granularity.
        shards = workers * 4 if workers > 1 else 1

    scheme = scheme_name(evaluator)
    engine = config.resolved_engine()
    fingerprint = config.science_fingerprint(scheme, geometry)
    plan = plan_shards(config.n_modules, shards)

    campaign = _FaultSimCampaign(evaluator, geometry, config, engine, fingerprint)
    population = _Population(config, geometry)
    items = [_ShardItem(shard, population) for shard in plan]

    def translate(snap: CampaignProgress) -> None:
        progress(
            ProgressStats(
                shards_done=snap.items_done,
                shards_total=snap.items_total,
                shards_from_checkpoint=snap.items_from_store,
                modules_done=snap.units_done,
                modules_total=snap.units_total,
                failures_so_far=snap.failures,
                elapsed_s=snap.elapsed_s,
                rejected_corrupt=snap.rejected_corrupt,
                rejected_stale=snap.rejected_stale,
            )
        )

    shard_failures = run_campaign(
        campaign,
        items,
        workers=workers,
        store_dir=checkpoint_dir,
        store=store,
        progress=translate if progress is not None else None,
    )

    parts = [
        build_result(scheme, config, shard_failures[s.index], n_modules=s.n_modules)
        for s in plan
    ]
    merged = ReliabilityResult.merge(parts)
    # plan_shards covers the population exactly, so the pooled count is
    # the configured one; assert the invariant cheaply.
    assert merged.n_modules == config.n_modules
    return merged
