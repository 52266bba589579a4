"""Vectorized Monte-Carlo fast path (the ``REPRO_FAULTSIM`` switch).

The scalar engine in :mod:`repro.faultsim.montecarlo` builds a
``random.Random`` per busy module, sorts arrival times, and dispatches to
a class-based evaluator — interpreter overhead that dominates
paper-scale campaigns even after multi-process sharding. This module is
the FaultSim-style observation turned into an engine: with Table III FIT
rates the overwhelming majority of busy modules draw **exactly one**
fault, and a fault arriving at a clean module classifies with
``existing == []``, so its outcome is a pure function of
*(scheme, fault scope, is-ECC-chip)*.

The fast engine therefore:

- **derives** a per-scheme outcome table by probing the scheme's own
  evaluator with clean-module faults (Table IV semantics stay
  single-sourced in :mod:`repro.faultsim.evaluators`; the table is never
  re-encoded by hand, and the derivation cross-checks several placements
  per cell);
- batch-draws arrival times, fault modes, and chip indices for all
  single-fault modules with a vectorized counter-based RNG
  (:func:`derive_seed`'s splitmix64 mixing applied to whole index
  arrays), then classifies them with one array table-lookup — no
  ``FaultInstance``, no ``random.Random``, no method dispatch;
- falls back to the scalar evaluator loop — the exact per-module
  ``derive_seed(seed, 0x51A7, i)`` stream — for multi-fault modules, so
  those records are **bit-identical** to the reference engine's.

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

import random
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.faults import place_fault
from repro.faultsim.fit import FaultMode
from repro.faultsim.geometry import ModuleGeometry
from repro.faultsim.montecarlo import OUTCOME_CODES, SCOPE_CODES, FailureColumns
from repro.utils.rng import child_seeds, derive_seed, unit_uniforms

#: Salt of the fast engine's counter-based draw stream (disjoint from the
#: reference streams 0xFA017 / 0x51A7 by construction of derive_seed).
FAST_STREAM_SALT = 0xFA57


# child_seeds / unit_uniforms live in repro.utils.rng (shared with the
# REPRO_PERF fast engine); the imports above re-export them here.


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
    :data:`~repro.faultsim.montecarlo.OUTCOME_CODES` indexed by
    ``[category, is_ecc_chip]``. The evaluator is the single source of
    truth: each cell is ``evaluator.classify([], fault)`` for a fault of
    that category placed on a data (resp. ECC) chip. Several random
    placements are probed per cell and must agree — the clean-module
    outcome contract is *(scope, is-ECC-chip)* only.
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


# -- the vectorized range simulator ----------------------------------------------


def simulate_range_fast(
    evaluator,
    geometry: ModuleGeometry,
    config,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
) -> FailureColumns:
    """Vectorized counterpart of :func:`simulate_range` (same contract).

    Single-fault modules are classified in one table lookup over batched
    draws and go straight into the failure columns; modules with two or
    more faults run the exact scalar per-module loop (their records are
    bit-identical to the reference engine's). Deterministic in
    ``(seed, lo, hi)`` and shard-invariant: disjoint ranges covering the
    population reproduce the full run.
    """
    # Looked up at call time, so a wrapped ``montecarlo._simulate_module``
    # (instrumentation) sees every multi-fault module.
    from repro.faultsim.montecarlo import _mode_categories, _simulate_module
    from repro.utils import units

    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
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
        # Scrubbing never matters here: one fault on a clean module has
        # nothing resident to scrub against.
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

    multi = []
    for local_index in np.nonzero(counts >= 2)[0]:
        record = _simulate_module(
            evaluator,
            geometry,
            config,
            lo + int(local_index),
            int(counts[local_index]),
            categories,
            cumulative,
            total_hours,
        )
        if record is not None:
            multi.append(record)
    return FailureColumns.concat([single, FailureColumns.from_records(multi)])
