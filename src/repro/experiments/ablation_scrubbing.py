"""Ablation: memory scrubbing in the reliability model.

FaultSim supports scrubbing of correctable transient faults; the paper's
runs accumulate faults conservatively. This ablation quantifies how much
scrubbing changes the 7-year failure probability for SECDED and SafeGuard
(it mainly suppresses the already-rare two-independent-bit collisions, so
the Figure 6 conclusions are insensitive to it).
"""

from repro.experiments import UNSCALED
from repro.experiments.reporting import print_banner
from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate

SCALES = UNSCALED

CLAIMS = {
    "A daily scrub never raises SECDED's 7-year failures":
        lambda runs: runs["secded"][1].n_failed <= runs["secded"][0].n_failed,
    "A daily scrub never raises SafeGuard's 7-year failures":
        lambda runs: runs["safeguard-secded"][1].n_failed <= runs["safeguard-secded"][0].n_failed,
    "SafeGuard stays free of silent corruption with scrubbing":
        lambda runs: runs["safeguard-secded"][1].n_sdc == 0,
}


def run(n_modules: int = 30_000) -> dict:
    """Each scheme's reliability results at 10x FIT (so collisions are
    visible): without scrubbing, then with a daily scrub."""
    geometry = X8_SECDED_16GB
    configs = [
        MonteCarloConfig(n_modules=n_modules, seed=13, fit_multiplier=10.0, scrub_interval_hours=h)
        for h in (None, 24.0)
    ]
    return {
        scheme: [simulate(evaluator_for(scheme, geometry), geometry, c) for c in configs]
        for scheme in ("secded", "safeguard-secded")
    }


def report(runs: dict) -> None:
    print_banner("Ablation: memory scrubbing in the reliability model")
    (secded, secded_scrubbed), (safeguard, safeguard_scrubbed) = runs.values()
    print(
        f"7y failures at 10x FIT, n={secded.n_modules}: "
        f"SECDED {secded.n_failed} -> {secded_scrubbed.n_failed} with daily scrub; "
        f"SafeGuard {safeguard.n_failed} -> {safeguard_scrubbed.n_failed}"
    )
