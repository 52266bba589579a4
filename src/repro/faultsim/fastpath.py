"""Vectorized Monte-Carlo fast path (the ``REPRO_FAULTSIM`` switch).

With Table III FIT rates the overwhelming majority of busy modules draw
**exactly one** fault, and a fault arriving at a clean module classifies
with ``existing == []``, so its outcome is a pure function of
*(scheme, fault scope, is-ECC-chip)*. The fast engine is that
FaultSim-style observation turned into an engine. It:

- **derives** a per-scheme outcome table by probing the scheme's own
  evaluator with clean-module faults
  (:func:`~repro.faultsim.montecarlo.derive_outcome_table`; Table IV
  semantics stay single-sourced in :mod:`repro.faultsim.evaluators`, the
  table is never re-encoded by hand, and the derivation cross-checks
  several placements per cell);
- batch-draws arrival times, fault modes, and chip indices for all
  single-fault modules with a vectorized counter-based RNG
  (:func:`derive_seed`'s splitmix64 mixing applied to whole index
  arrays), then classifies them with one array table-lookup — no
  ``FaultInstance``, no ``random.Random``, no method dispatch;
- replays multi-fault modules from the exact per-module
  ``derive_seed(seed, 0x51A7, i)`` streams, as the reference engine
  does (:func:`~repro.faultsim.montecarlo.replay_modules`), so those
  rows are **bit-identical** to the reference engine's.

Because every draw is a pure function of ``(seed, global module index)``,
the fast engine is shard-invariant like the reference one: any
worker/shard count reproduces the same fast-engine result. Fast and
reference outputs are *statistically* equivalent (same Poisson fault
counts, same per-arrival distributions) but not bit-identical — the
single-fault draws come from different streams. The engine is recorded
in :meth:`MonteCarloConfig.science_fingerprint`, so checkpoints never
resume across modes.

Mode resolution: ``MonteCarloConfig.engine``, else the
:data:`repro.switches.FAULTSIM` switch (an override, then
``REPRO_FAULTSIM``, then ``"reference"`` — the default, preserving the
reference engine's bit-identical sequential/parallel contract).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faultsim.geometry import ModuleGeometry
from repro.faultsim.montecarlo import (
    SCOPE_CODES,
    FailureColumns,
    _mode_categories,
    derive_outcome_table,
    replay_modules,
)
from repro.utils import units
from repro.utils.rng import child_seeds, derive_seed, unit_uniforms

#: Salt of the fast engine's counter-based draw stream (disjoint from the
#: reference streams 0xFA017 / 0x51A7 by construction of derive_seed).
FAST_STREAM_SALT = 0xFA57


# child_seeds / unit_uniforms live in repro.utils.rng (shared with the
# REPRO_PERF fast engine); the imports above re-export them here.


# -- the vectorized range simulator ----------------------------------------------


def simulate_range_fast(
    evaluator,
    geometry: ModuleGeometry,
    config,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> FailureColumns:
    """Vectorized counterpart of :func:`simulate_range` (same contract).

    Single-fault modules are classified in one table lookup over batched
    counter-stream draws and go straight into the failure columns;
    modules with two or more faults are replayed from their per-module
    streams (:func:`~repro.faultsim.montecarlo.replay_modules`), so their
    rows are bit-identical to the reference engine's. Deterministic in
    ``(seed, lo, hi)`` and shard-invariant: disjoint ranges covering the
    population reproduce the full run. ``table`` is the run's derived
    outcome table, as for :func:`simulate_range`; None derives it here,
    and a position-dependent evaluator raises ``ValueError``.
    """
    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
    counts = np.asarray(fault_counts)
    single_local = np.flatnonzero(counts == 1)
    multi_local = np.flatnonzero(counts >= 2)
    if not (single_local.size or multi_local.size):
        return FailureColumns.from_records([])
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)
    if table is None:
        table = derive_outcome_table(evaluator, geometry, categories)

    single = FailureColumns.from_records([])
    if single_local.size:
        indices = single_local.astype(np.uint64) + np.uint64(lo)
        base = child_seeds(
            np.uint64(derive_seed(config.seed, FAST_STREAM_SALT)), indices
        )
        # Scrubbing never matters here: one fault on a clean module has
        # nothing resident to scrub against.
        times = unit_uniforms(child_seeds(base, 0)) * total_hours
        category = np.searchsorted(
            cumulative, unit_uniforms(child_seeds(base, 1)), side="left"
        )
        chips = child_seeds(base, 2) % np.uint64(geometry.chips_per_rank)
        is_ecc = (chips >= np.uint64(geometry.data_chips_per_rank)).astype(np.intp)
        codes = table[category, is_ecc]
        scope_codes = np.array(
            [SCOPE_CODES[mode.scope.value] for mode, _ in categories], dtype=np.uint8
        )
        failing = np.nonzero(codes)[0]
        single = FailureColumns(
            times[failing], codes[failing], scope_codes[category[failing]]
        )
    multi = replay_modules(evaluator, geometry, config, counts, lo, multi_local, table)
    return FailureColumns.concat([single, multi])
