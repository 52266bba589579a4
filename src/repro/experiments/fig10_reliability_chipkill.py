"""Figure 10: 7-year reliability — Chipkill vs. SafeGuard-Chipkill.

x4 16GB modules, Table III FIT rates, at 1x and (Section V-E) 10x FIT.
The paper's finding: virtually identical correction reliability, with
SafeGuard additionally detecting the multi-chip corruption Chipkill can
silently miscorrect.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import format_table, print_banner, wilson_interval
from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X4_CHIPKILL_16GB, geometry_for
from repro.faultsim.montecarlo import MonteCarloConfig, ReliabilityResult
from repro.faultsim.parallel import ProgressCallback, simulate_parallel


#: The organizations Figure 10 compares, by registry scheme name.
SCHEMES = ("chipkill", "safeguard-chipkill")

#: Modules per scheme and FIT rate.
SCALES = {
    "smoke": dict(n_modules=15_000, seed=1),
    "quick": dict(n_modules=50_000),
    "paper": dict(n_modules=2_000_000),
}


def _matches_chipkill(pair: List[ReliabilityResult]) -> bool:
    chipkill, safeguard = pair
    return abs(safeguard.n_failed - chipkill.n_failed) <= max(5, int(chipkill.n_failed * 0.15))


CLAIMS = {
    "SafeGuard-Chipkill's failures are virtually identical to Chipkill's "
    "at 1x and 10x FIT (Fig. 10): within max(5, 15 %)":
        lambda results: all(_matches_chipkill(pair) for pair in results.values()),
    "SafeGuard-Chipkill never fails silently (Fig. 10): 0 SDC at both rates":
        lambda results: all(pair[1].n_sdc == 0 for pair in results.values()),
    "10x FIT fails more Chipkill modules than 1x (Section V-E)":
        lambda results: results[10.0][0].n_failed > results[1.0][0].n_failed,
}


def run(
    n_modules: int,
    seed: int = 42,
    fit_multipliers: Tuple[float, ...] = (1.0, 10.0),
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    schemes: Tuple[str, ...] = SCHEMES,
    engine: Optional[str] = None,
    cache_dir: Optional[str] = None,
    store=None,
) -> Dict[float, List[ReliabilityResult]]:
    """``workers``/``REPRO_WORKERS`` parallelize without changing output.

    ``engine`` picks the Monte-Carlo engine (``"fast"``/``"reference"``;
    default: ``REPRO_FAULTSIM`` or reference). ``cache_dir`` or a ready
    ``store`` keeps every shard as a store cell, as in Figure 6.
    """
    geometry = X4_CHIPKILL_16GB
    for name in schemes:
        if geometry_for(name) is not geometry:
            raise ValueError(
                f"Figure 10 simulates the {geometry.name} module, and {name!r} "
                f"runs on {geometry_for(name).name}; Figure 10's schemes: "
                f"{', '.join(SCHEMES)}"
            )
    out: Dict[float, List[ReliabilityResult]] = {}
    for multiplier in fit_multipliers:
        config = MonteCarloConfig(
            n_modules=n_modules,
            seed=seed,
            fit_multiplier=multiplier,
            engine=engine,
        )
        out[multiplier] = [
            simulate_parallel(
                evaluator_for(name, geometry),
                geometry,
                config,
                workers=workers,
                checkpoint_dir=cache_dir,
                store=store,
                progress=progress,
            )
            for name in schemes
        ]
    return out


def report(results: Dict[float, List[ReliabilityResult]]) -> str:
    first = next(iter(results.values()))[0]
    print_banner(
        "Figure 10: probability of system failure (x4 16GB, 7 years, "
        f"{first.n_modules:,} modules)"
    )
    years = [1, 3, 5, 7]
    rows = []
    for multiplier, pair in results.items():
        for r in pair:
            rows.append(
                [f"{multiplier:g}x FIT", r.scheme]
                + [f"{r.probability_at_years(y):.4%}" for y in years]
                + [wilson_interval(r), f"{r.n_due}/{r.n_sdc}"]
            )
    table = format_table(
        ["FIT", "Scheme"] + [f"{y}y" for y in years] + ["95% CI (7y)", "DUE/SDC"],
        rows,
    )
    print(table)
    print(
        "\nSafeGuard-Chipkill matches Chipkill's correction reliability at "
        "both fault rates while never failing silently."
    )
    return table
