"""Sections V-C / VII-E: MAC escape-rate analysis and empirical scaling.

Analytic escape times for the paper's scenarios (46-bit SECDED MAC,
32-bit Chipkill MAC with iterative vs. eager correction, and the
permanent-chip-failure regime without eager correction), plus an
empirical validation that the escape probability of the real MAC
construction scales as 2^-n: with production widths an escape would never
occur in feasible simulation time, so the measurement uses narrow MACs
(8-14 bits) and checks the measured escape rate against 2^-n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.analysis import (
    EscapeAnalysis,
    chip_failure_escape_time,
    mac_escape_analysis,
)
from repro.experiments.reporting import format_table, print_banner
from repro.mac.linemac import LineMAC
from repro.utils.rng import make_rng


@dataclass
class EmpiricalEscape:
    mac_bits: int
    trials: int
    escapes: int

    @property
    def measured_rate(self) -> float:
        return self.escapes / self.trials

    @property
    def expected_rate(self) -> float:
        return 2.0 ** (-self.mac_bits)


def analytic() -> List[Tuple[str, EscapeAnalysis]]:
    """The three Section VII-E scenarios."""
    return [
        ("SECDED MAC-46, 1 check/fault", mac_escape_analysis(46, checks_per_fault=1.0)),
        ("Chipkill MAC-32, iterative (18 checks/fault)", mac_escape_analysis(32, checks_per_fault=18.0)),
        ("Chipkill MAC-32, eager (1 check/fault)", mac_escape_analysis(32, checks_per_fault=1.0)),
    ]


def empirical(
    widths: Sequence[int], trials: int, seed: int = 17
) -> List[EmpiricalEscape]:
    """Measure escape rates of the real MAC at narrow widths."""
    rng = make_rng(seed)
    out: List[EmpiricalEscape] = []
    for bits in widths:
        mac = LineMAC(b"sec7e-escape-key", bits)
        line = bytes(rng.getrandbits(8) for _ in range(64))
        stored = mac.compute(line, 0x40)
        escapes = 0
        for _ in range(trials):
            corrupted = bytearray(line)
            # Arbitrary multi-bit corruption, as RH delivers.
            for _ in range(rng.randrange(1, 9)):
                corrupted[rng.randrange(64)] ^= 1 << rng.randrange(8)
            if bytes(corrupted) != line and mac.verify(bytes(corrupted), 0x40, stored):
                escapes += 1
        out.append(EmpiricalEscape(bits, trials, escapes))
    return out


def run(
    widths: Sequence[int], trials: int
) -> Tuple[List[Tuple[str, EscapeAnalysis]], List[EmpiricalEscape]]:
    """The analytic scenarios, and the empirical escape rate at each of
    ``widths`` over ``trials`` corruptions."""
    return analytic(), empirical(widths, trials)


#: MAC widths and corruptions per width of the empirical check.
SCALES = {
    "smoke": dict(widths=(8,), trials=5_000),
    "quick": dict(widths=(8, 10, 12), trials=40_000),
    "paper": dict(widths=(8, 10, 12, 14), trials=120_000),
}


def _years(results, scenario: str) -> float:
    """Expected years to an escape in the analytic scenario whose label
    names ``scenario``."""
    return next(a for label, a in results[0] if scenario in label).expected_years_to_escape


CLAIMS = {
    "A 46-bit MAC checked once per fault takes 1000+ years to escape "
    "(Section VII-E)":
        lambda results: _years(results, "MAC-46") > 1000,
    "A 32-bit MAC with iterative correction escapes within 6 months "
    "(Section VII-E): measured 3-12 months":
        lambda results: 3 < 12 * _years(results, "iterative") < 12,
    "Eager correction stretches that to about 9 years, 18x "
    "(Section VII-E): measured 7-11 years":
        lambda results: 7 < _years(results, "eager") < 11,
    "A permanent chip failure without eager correction escapes in less "
    "than 1 minute (Section V-C)":
        lambda results: chip_failure_escape_time() < 60,
    "The real MAC's escape rate scales as 2^-n (Section VII-E): each "
    "measured rate within 0.2x-5x of 2^-n":
        lambda results: all(
            0.2 * e.expected_rate < max(e.measured_rate, 1e-9) < 5 * e.expected_rate + 1e-9
            for e in results[1]
        ),
}


def report(results) -> str:
    analytic_rows, empirical_rows = results
    print_banner("Section VII-E: expected time for RH corruption to escape the MAC")
    rows = []
    for label, a in analytic_rows:
        years = a.expected_years_to_escape
        human = f"{years:,.0f} years" if years >= 1 else f"{years * 12:.1f} months"
        rows.append((label, f"2^{a.mac_bits}", f"{a.checks_per_fault:g}", human))
    table = format_table(
        ["Scenario (1 corrupted line / 64ms)", "Checks to escape", "Checks/fault", "Expected time"],
        rows,
    )
    print(table)
    chip = chip_failure_escape_time()
    print(
        "\nSection V-C: permanent chip failure without eager correction -> "
        f"escape expected within {chip:.0f}s (< 1 minute) at memory speeds."
    )
    print("\nEmpirical 2^-n scaling of the real MAC construction:")
    emp = format_table(
        ["MAC bits", "Trials", "Escapes", "Measured", "Expected 2^-n"],
        [
            (e.mac_bits, e.trials, e.escapes, f"{e.measured_rate:.2e}", f"{e.expected_rate:.2e}")
            for e in empirical_rows
        ],
    )
    print(emp)
    return table
