"""Ablation: memory scrubbing in the reliability model.

FaultSim supports scrubbing of correctable transient faults; the paper's
runs accumulate faults conservatively. This ablation quantifies how much
scrubbing changes the 7-year failure probability for SECDED and SafeGuard
(it mainly suppresses the already-rare two-independent-bit collisions, so
the Figure 6 conclusions are insensitive to it).
"""

from conftest import once

from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate


def _run(scrub_hours):
    config = MonteCarloConfig(
        n_modules=30_000,
        seed=13,
        fit_multiplier=10.0,  # boosted so collisions are visible
        scrub_interval_hours=scrub_hours,
    )
    geometry = X8_SECDED_16GB
    return (
        simulate(evaluator_for("secded", geometry), geometry, config),
        simulate(evaluator_for("safeguard-secded", geometry), geometry, config),
    )


def test_scrubbing_sensitivity(benchmark):
    def both():
        return _run(None), _run(24.0)

    (secded_raw, sg_raw), (secded_scrub, sg_scrub) = once(benchmark, both)
    print(
        f"\nAblation: 7y failures at 10x FIT, n={secded_raw.n_modules}: "
        f"SECDED {secded_raw.n_failed} -> {secded_scrub.n_failed} with daily scrub; "
        f"SafeGuard {sg_raw.n_failed} -> {sg_scrub.n_failed}"
    )
    assert secded_scrub.n_failed <= secded_raw.n_failed
    assert sg_scrub.n_failed <= sg_raw.n_failed
    # The SafeGuard-vs-SECDED relationship survives scrubbing.
    assert sg_scrub.n_sdc == 0
