"""Ablation (Section VIII): BlockHammer-style throttling.

The paper's related-work discussion credits BlockHammer with pattern-
independence (nothing for Half-Double to exploit) but criticizes its
latency (blacklisted accesses can exceed 125us at low thresholds) and its
design-point threshold dependence. This study measures all three.
"""

from repro.experiments.reporting import print_banner
from repro.rowhammer.attacks import compile_playbook
from repro.rowhammer.blockhammer import BlockHammerMitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.playbook import scenario
from repro.rowhammer.runner import AttackRunner

#: Threshold and budget; ``smoke`` keeps their ratio, ``quick`` is ``paper``.
SCALES = {
    "smoke": dict(rh_threshold=150, budget=42_500),
    "quick": dict(rh_threshold=1200, budget=340_000),
    "paper": dict(rh_threshold=1200, budget=340_000),
}

CLAIMS = {
    "BlockHammer at the device threshold stops all three attacks (Section VIII)":
        lambda r: not any(result.broke_through for result, _ in r[0]),
    "BlockHammer refreshes no victim: nothing for Half-Double (Section VIII)":
        lambda r: all(result.mitigation_refreshes == 0 for result, _ in r[0]),
    "A blacklisted row waits over 125 us per activation at a 1K threshold (Section VIII)":
        lambda r: r[2] > 125,
    "BlockHammer sized for 139K breaks under threshold drift (Section VIII)":
        lambda r: r[1].broke_through,
}


def _hammer(name: str, rh_threshold: int, design_threshold: int, budget: int):
    """The library scenario ``name`` at victim row 64 against a throttle
    sized for ``design_threshold``: the attack's result and the share of
    activations the throttle blocked."""
    model = DisturbanceModel(RowHammerConfig(rh_threshold=rh_threshold, seed=1))
    mitigation = BlockHammerMitigation(design_threshold=design_threshold, seed=2)
    attack = compile_playbook(scenario(name), base_row=64)
    return AttackRunner(model, mitigation).run(attack, budget=budget), mitigation.blocked_fraction


def run(rh_threshold: int, budget: int):
    """Each attack against a throttle sized for the device, double-sided
    against one sized for DDR3's 139K (threshold drift), and a
    blacklisted row's pacing delay at a 1K threshold in us."""
    throttled = [
        _hammer(name, rh_threshold, rh_threshold, budget)
        for name in ("double-sided", "many-sided", "half-double")
    ]
    drift, _ = _hammer("double-sided", rh_threshold, 139_000, budget)
    return throttled, drift, BlockHammerMitigation(1000).throttle_delay_ns() / 1000


def report(results) -> None:
    throttled, drift, delay_us = results
    print_banner("Section VIII ablation: BlockHammer-style throttling")
    print("Design threshold = device threshold:")
    for result, blocked_fraction in throttled:
        print(
            f"  {result.attack:24s} victim flips={result.intended_flips:3d} "
            f"blocked={result.blocked_activations:6d} "
            f"(blocked fraction {blocked_fraction:.0%})"
        )
    print(f"  blacklisted-row pacing delay at threshold 1K: {delay_us:.0f}us "
          "(the paper's >125us criticism)")
    print(f"  threshold drift (sized 139K): victim flips={drift.intended_flips}")
