"""Figure 1c: breakthrough flips — silent corruption vs. detected DUE.

The paper's thesis made executable: run a breakthrough attack (Half-Double
against a Graphene-style mitigation), apply the resulting victim-row
bit-flips to the stored bits of each memory organization, then read the
victim data back and classify what software would consume. Conventional
ECC silently consumes (or miscorrects) multi-bit corruption — a security
risk; SafeGuard converts every one of those reads into a detected
uncorrectable error — a reliability event. The run is a playbook grid
(:mod:`repro.rowhammer.playbook`): ``half-double`` x ``graphene`` x the
schemes x the seeds, summed per scheme.
"""

from __future__ import annotations

from typing import List, Optional

from repro.campaign import ProgressCallback
from repro.core import registry
from repro.experiments.reporting import format_table, print_banner
from repro.rowhammer.integration import ConsumptionOutcome
from repro.rowhammer.playbook import PlaybookConfig, plan_playbook, run_playbook


#: The organizations Figure 1c compares, resolved by registry name.
SCHEMES = ("secded", "safeguard-secded", "chipkill", "safeguard-chipkill")

#: Threshold and activation budget, scaled together (as Figure 1b's).
SCALES = {
    "smoke": dict(rh_threshold=600, budget=120_000),
    "quick": dict(rh_threshold=1200, budget=340_000),
    "paper": dict(rh_threshold=4800, budget=1_360_000),
}


def _outcome(outcomes: "List[ConsumptionOutcome]", scheme: str) -> ConsumptionOutcome:
    display = registry.scheme(scheme).display
    return next(o for o in outcomes if o.organization == display)


CLAIMS = {
    "SafeGuard consumes no breakthrough flip silently, with SECDED or "
    "Chipkill (Fig. 1c)":
        lambda outcomes: not _outcome(outcomes, "safeguard-secded").security_risk
        and not _outcome(outcomes, "safeguard-chipkill").security_risk,
    "SafeGuard turns breakthrough flips into detected errors (DUEs) (Fig. 1c)":
        lambda outcomes: _outcome(outcomes, "safeguard-secded").detected_ue > 0,
}


def run(
    rh_threshold: int,
    budget: int,
    victim_row: int = 64,
    seeds: "tuple[int, ...]" = (3, 5, 7, 11, 13, 17),
    weak_cells: int = 64,
    schemes: "tuple[str, ...]" = SCHEMES,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> List[ConsumptionOutcome]:
    """Breakthrough attacks, then consumption under each organization.

    Several attack instances (different weak-cell populations) are
    aggregated so every consumption class appears: flips that ECC still
    corrects, multi-bit words SECDED *miscorrects into silently wrong
    data*, and the same patterns SafeGuard converts to DUEs.
    """
    config = PlaybookConfig(
        rh_threshold=rh_threshold,
        budget=budget,
        victim_row=victim_row,
        weak_cells_per_row=weak_cells,
        flips_per_crossing=6.0,
    )
    cells = plan_playbook(
        scenarios=("half-double",),
        mitigations=("graphene",),
        schemes=schemes,
        seeds=seeds,
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
    totals = {
        name: ConsumptionOutcome(organization=registry.scheme(name).display)
        for name in schemes
    }
    for cell in cells:
        point = outcomes[cell.key]
        total = totals[cell.scheme]
        total.lines_read += point.lines_read
        # Every read is exactly one of clean, corrected or a DUE.
        total.clean += point.lines_read - point.corrected - point.detected_ue
        total.corrected += point.corrected
        total.detected_ue += point.detected_ue
        total.silent_corruptions += point.silent_corruptions
    return list(totals.values())


def report(outcomes: List[ConsumptionOutcome]) -> str:
    print_banner("Figure 1c: consumption of breakthrough RH bit-flips")
    rows = [
        (
            o.organization,
            o.lines_read,
            o.corrected,
            o.detected_ue,
            o.silent_corruptions,
            "SECURITY RISK" if o.security_risk else "reliability only",
        )
        for o in outcomes
    ]
    table = format_table(
        ["Organization", "Lines", "Corrected", "DUE", "Silent corruption", "Verdict"],
        rows,
    )
    print(table)
    print(
        "\nSafeGuard converts silent consumption of corrupted data into "
        "detected uncorrectable errors (Figure 1c)."
    )
    return table
