"""Figure 1b: breakthrough attack patterns versus precise mitigations.

Reproduces the paper's motivating matrix: classic patterns are stopped by
correctly sized precise mitigations; lowering the device threshold below
the design point (Table I's trend), exceeding tracker capacity
(TRRespass), or weaponizing the mitigation's own refreshes (Half-Double)
all break through. The matrix is a playbook grid
(:mod:`repro.rowhammer.playbook`): the library's ``double-sided``,
``many-sided`` (TRRespass, flush rows 74-118 inside the 128-row bank)
and ``half-double`` scenarios against six mitigations, so it caches,
resumes and fans out like any campaign. The ``quick`` scale runs the
grid in about a minute on one core; ``paper`` is the device threshold
(4.8K) and a full refresh window's activations (1.36M).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.campaign import ProgressCallback
from repro.experiments.reporting import format_table, print_banner
from repro.rowhammer.model import RowHammerConfig
from repro.rowhammer.playbook import PlaybookConfig, plan_playbook, run_playbook

#: Library scenario -> the row label Figure 1b prints.
ATTACKS = {
    "double-sided": "double-sided",
    "many-sided": "many-sided(trrespass)",
    "half-double": "half-double",
}

#: Row label -> playbook mitigation name.
MITIGATIONS = {
    "none": "none",
    "para": "para-sized",
    "para-stale": "para-stale",  # sized for DDR3-2014
    "trr": "trr",
    "graphene": "graphene",
    "blockhammer": "blockhammer",
}

#: Figure 1b counts victim flips only; one scheme consumes them.
SCHEME = "secded"

#: Threshold and activation budget, scaled together.
SCALES = {
    "smoke": dict(rh_threshold=600, budget=120_000),
    "quick": dict(rh_threshold=1200, budget=340_000),
    "paper": dict(rh_threshold=4800, budget=1_360_000),
}


def _broke(cells: "List[Cell]", mitigation: str, attack: str) -> bool:
    return next(
        c.broke_through for c in cells if (c.mitigation, c.attack) == (mitigation, attack)
    )


CLAIMS = {
    "TRRespass breaks TRR (Fig. 1b, Case 2)":
        lambda cells: _broke(cells, "trr", "many-sided(trrespass)"),
    "Half-Double breaks Graphene (Fig. 1b, Case 1)":
        lambda cells: _broke(cells, "graphene", "half-double"),
    "PARA sized for the 2014 threshold (139K) fails on a 4.8K-era part "
    "(Fig. 1b, threshold drift)":
        lambda cells: _broke(cells, "para-stale", "double-sided"),
    "PARA and Graphene sized for the device stop the classic patterns (Fig. 1b)":
        lambda cells: not _broke(cells, "para", "double-sided")
        and not _broke(cells, "graphene", "many-sided(trrespass)"),
}


@dataclass(frozen=True)
class Cell:
    attack: str
    mitigation: str
    intended_flips: int
    broke_through: bool


def run(
    rh_threshold: int,
    budget: int,
    victim_row: int = 64,
    seed: int = 1,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> List[Cell]:
    """Run every attack against every mitigation (the default model's
    weak-cell population and flip rate)."""
    defaults = RowHammerConfig()
    config = PlaybookConfig(
        rh_threshold=rh_threshold,
        budget=budget,
        victim_row=victim_row,
        weak_cells_per_row=defaults.weak_cells_per_row,
        flips_per_crossing=defaults.flips_per_crossing,
    )
    cells = plan_playbook(
        scenarios=tuple(ATTACKS),
        mitigations=tuple(MITIGATIONS.values()),
        schemes=(SCHEME,),
        seeds=(seed,),
        config=config,
    )
    outcomes = run_playbook(
        cells,
        config,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        progress=progress,
    )
    matrix: List[Cell] = []
    for mit_label, mitigation in MITIGATIONS.items():
        for scenario, label in ATTACKS.items():
            outcome = outcomes[(scenario, mitigation, SCHEME, seed)]
            matrix.append(
                Cell(label, mit_label, outcome.intended_flips, outcome.broke_through)
            )
    return matrix


def report(cells: List[Cell]) -> str:
    print_banner("Figure 1b: attack patterns vs. precise RH mitigations")
    rows = [
        (
            c.mitigation,
            c.attack,
            c.intended_flips,
            "BREAKTHROUGH" if c.broke_through else "mitigated",
        )
        for c in cells
    ]
    table = format_table(
        ["Mitigation", "Attack pattern", "Victim flips", "Outcome"], rows
    )
    print(table)
    print(
        "\nHalf-Double flips bits at distance 2 *using the mitigation's own "
        "refreshes*; it does nothing on unprotected DRAM and defeats every "
        "precise mitigation — Figure 1b's message."
    )
    return table
