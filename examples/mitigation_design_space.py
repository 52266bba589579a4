#!/usr/bin/env python3
"""Design-space study: sizing mitigations against a moving threshold.

The paper's Section II-D argument made quantitative: every mitigation is
parameterized for a *design-point* RH-Threshold, and Table I shows that
deployed modules keep arriving with lower ones. This study sweeps the
design point against device thresholds and reports where each mitigation
silently stops working — plus what the safe configurations cost.

Run:  python examples/mitigation_design_space.py
"""

from repro.experiments.reporting import format_table, print_banner
from repro.rowhammer.attacks import compile_playbook
from repro.rowhammer.blockhammer import BlockHammerMitigation
from repro.rowhammer.mitigations import PARA, GrapheneMitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.playbook import scenario
from repro.rowhammer.runner import AttackRunner

DEVICE_THRESHOLDS = [2400, 1200, 600]
DESIGN_POINTS = [2400, 1200, 600]
BUDGET = 180_000
#: The library's double-sided playbook around victim row 64.
DOUBLE_SIDED = compile_playbook(scenario("double-sided"), base_row=64)


def breakthrough(mitigation_factory, device_threshold):
    model = DisturbanceModel(RowHammerConfig(rh_threshold=device_threshold, seed=1))
    runner = AttackRunner(model, mitigation_factory())
    result = runner.run(DOUBLE_SIDED, windows=1, budget=BUDGET)
    return result.intended_flips


def sweep(name, factory_for_design):
    print_banner(f"{name}: design point vs. device threshold (victim flips)")
    rows = []
    for design in DESIGN_POINTS:
        row = [f"designed for {design}"]
        for device in DEVICE_THRESHOLDS:
            flips = breakthrough(lambda: factory_for_design(design), device)
            row.append(f"{flips} {'BREAK' if flips else 'ok':s}")
        rows.append(row)
    print(format_table(["mitigation"] + [f"device {d}" for d in DEVICE_THRESHOLDS], rows))


def main():
    print(
        "Sweeping double-sided hammering (scaled thresholds for speed).\n"
        "A mitigation holds on the diagonal and above; deploying a module\n"
        "with a lower threshold than the design point re-opens the attack."
    )
    sweep("PARA", lambda design: PARA.sized_for(design))
    sweep("Graphene", lambda design: GrapheneMitigation(design, BUDGET))
    sweep("BlockHammer", lambda design: BlockHammerMitigation(design_threshold=design))

    print_banner("The cost side: BlockHammer pacing delay vs. design threshold")
    rows = [
        (design, f"{BlockHammerMitigation(design).throttle_delay_ns() / 1000:.0f}us")
        for design in (32_000, 10_000, 4_800, 1_000)
    ]
    print(format_table(["design threshold", "blacklisted-row delay"], rows))
    print(
        "\nLower thresholds force harsher throttling — the paper's latency\n"
        "criticism of BlockHammer (>125us per access at threshold 1K)."
    )


if __name__ == "__main__":
    main()
