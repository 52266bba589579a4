"""Ablation (Section II-D): isolation and global-refresh mitigations.

Completes the paper's four-class mitigation taxonomy with the two classes
Figure 1b's matrix doesn't cover: guard-row isolation (broken across a
single guard by the deployed mitigation's own refreshes — the blast-radius
assumption) and global refresh-rate increase (arithmetically infeasible
at modern thresholds).
"""

from repro.experiments.reporting import print_banner
from repro.rowhammer.global_refresh import analyze, feasibility_breakpoint
from repro.rowhammer.isolation import evaluate_isolation
from repro.rowhammer.mitigations import TRRMitigation

#: Threshold and budget; ``smoke`` keeps their ratio, ``quick`` is ``paper``.
SCALES = {
    "smoke": dict(rh_threshold=150, budget=42_500),
    "quick": dict(rh_threshold=1200, budget=340_000),
    "paper": dict(rh_threshold=1200, budget=340_000),
}

CLAIMS = {
    "One guard row isolates the domains if nothing refreshes victims (Section II-D)":
        lambda r: r[0]["guard1_alone"].isolation_held,
    "TRR's refreshes carry the hammer across one guard row (Section II-D)":
        lambda r: not r[0]["guard1_with_trr"].isolation_held,
    "Two guard rows isolate the domains under TRR (Section II-D)":
        lambda r: r[0]["guard2_with_trr"].isolation_held,
    "Global refresh keeps up at DDR3's 139K threshold (Section II-D)":
        lambda r: r[1][139_000].feasible,
    "Global refresh cannot keep up at a 10K threshold (Section II-D)":
        lambda r: not r[1][10_000].feasible,
    "Global refresh stops keeping up near 32K (Section II-D): between 30K and 100K":
        lambda r: 30_000 < feasibility_breakpoint() < 100_000,
}


def run(rh_threshold: int, budget: int):
    """Each guard layout's boundary-hammering outcome, and the refresh
    arithmetic at each threshold from DDR3 (2014) to LPDDR4 (2020)."""
    isolation = {
        label: evaluate_isolation(guards, mitigation, rh_threshold, budget)
        for label, guards, mitigation in (
            ("guard1_alone", 1, None),
            ("guard1_with_trr", 1, lambda: TRRMitigation(4)),
            ("guard2_with_trr", 2, lambda: TRRMitigation(4)),
        )
    }
    return isolation, {t: analyze(t) for t in (139_000, 32_000, 10_000, 4_800)}


def report(results) -> None:
    isolation, refresh = results
    print_banner("Section II-D ablation: isolation and global refresh")
    print("Guard-row isolation under boundary hammering:")
    for label, o in isolation.items():
        print(
            f"  {label:18s} cross-domain flips={o.cross_domain_flips:3d} "
            f"guard flips={o.guard_row_flips:3d} overhead={o.capacity_overhead:.1%}"
        )
    print("\nGlobal refresh feasibility (paper Section II-D):")
    for threshold, a in refresh.items():
        print(
            f"  threshold {threshold:>7,}: window {a.required_window_ms:5.2f}ms, "
            f"refresh overhead {a.refresh_overhead:7.1%} "
            f"{'OK' if a.feasible else 'INFEASIBLE'}"
        )
