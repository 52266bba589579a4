"""Ablation (Section VIII): BlockHammer-style throttling.

The paper's related-work discussion credits BlockHammer with pattern-
independence (nothing for Half-Double to exploit) but criticizes its
latency (blacklisted accesses can exceed 125us at low thresholds) and its
design-point threshold dependence. This bench measures all three.
"""

from conftest import once

from repro.rowhammer.attacks import compile_playbook
from repro.rowhammer.blockhammer import BlockHammerMitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.playbook import scenario
from repro.rowhammer.runner import AttackRunner

THRESHOLD = 1200
BUDGET = 340_000


def _attack(name):
    """The library scenario ``name`` at victim row 64."""
    return compile_playbook(scenario(name), base_row=64)


def _campaign():
    rows = []
    for attack in map(_attack, ("double-sided", "many-sided", "half-double")):
        model = DisturbanceModel(RowHammerConfig(rh_threshold=THRESHOLD, seed=1))
        mitigation = BlockHammerMitigation(design_threshold=THRESHOLD, seed=2)
        result = AttackRunner(model, mitigation).run(attack, budget=BUDGET)
        rows.append((attack.name, result, mitigation))
    # Threshold drift: designed for the 2014 threshold, deployed today.
    model = DisturbanceModel(RowHammerConfig(rh_threshold=THRESHOLD, seed=1))
    stale = BlockHammerMitigation(design_threshold=139_000, seed=2)
    drift = AttackRunner(model, stale).run(_attack("double-sided"), budget=BUDGET)
    return rows, drift


def test_blockhammer_ablation(benchmark):
    rows, drift = once(benchmark, _campaign)
    print("\nBlockHammer-style throttling (design threshold = device threshold):")
    for name, result, mitigation in rows:
        print(
            f"  {name:24s} victim flips={result.intended_flips:3d} "
            f"blocked={result.blocked_activations:6d} "
            f"(blocked fraction {mitigation.blocked_fraction:.0%})"
        )
        assert not result.broke_through
        assert result.mitigation_refreshes == 0  # nothing for Half-Double
    delay_us = BlockHammerMitigation(1000).throttle_delay_ns() / 1000
    print(f"  blacklisted-row pacing delay at threshold 1K: {delay_us:.0f}us "
          "(the paper's >125us criticism)")
    assert delay_us > 125
    print(f"  threshold drift (sized 139K, deployed {THRESHOLD}): "
          f"victim flips={drift.intended_flips}")
    assert drift.broke_through
