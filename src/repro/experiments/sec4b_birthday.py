"""Section IV-B: the birthday-bound multi-bit-per-line analysis.

Analytic reproduction of the paper's arithmetic plus a Monte-Carlo
cross-check of the underlying collision model: after ``f`` single-bit
faults land uniformly over ``N`` lines, the probability the next fault
hits an already-faulty line is ``f/N``, and ~sqrt(N) faults accumulate
before any line holds two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import BirthdayAnalysis, birthday_analysis
from repro.experiments import UNSCALED
from repro.experiments.reporting import format_table, print_banner
from repro.utils.rng import make_rng

SCALES = UNSCALED

CLAIMS = {
    "About sqrt(N) = 2^15 single-bit faults land before two share a line "
    "(Section IV-B)":
        lambda results: results[0].faults_for_collision == (1 << 15),
    "SECDED beats SafeGuard with probability 3.51e-5 (Section IV-B): "
    "measured below 1e-4":
        lambda results: results[0].p_secded_superior < 1e-4,
    "Two faults in one line take millennia even at 100x FIT (Section IV-B): "
    "over 1,000 years":
        lambda results: results[0].years_to_two_faults > 1000,
    "Faults to the first shared line average sqrt(pi/2) sqrt(N) = 1.25 sqrt(N) "
    "(birthday bound): measured ratio in (1.0, 1.6)":
        lambda results: 1.0 < results[1].ratio < 1.6,
}


@dataclass
class CollisionCheck:
    """Monte-Carlo estimate of faults-until-two-share-a-line."""

    n_lines: int
    trials: int
    mean_faults_to_collision: float
    sqrt_n: float

    @property
    def ratio(self) -> float:
        """Measured/expected; the birthday bound predicts ~1.25 (sqrt(pi/2))."""
        return self.mean_faults_to_collision / self.sqrt_n


def monte_carlo_collision(n_lines: int = 1 << 20, trials: int = 200, seed: int = 5) -> CollisionCheck:
    """Empirically measure faults-until-collision on a scaled-down memory."""
    rng = make_rng(seed)
    totals = 0
    for _ in range(trials):
        seen = set()
        count = 0
        while True:
            line = rng.randrange(n_lines)
            count += 1
            if line in seen:
                break
            seen.add(line)
        totals += count
    return CollisionCheck(
        n_lines=n_lines,
        trials=trials,
        mean_faults_to_collision=totals / trials,
        sqrt_n=n_lines ** 0.5,
    )


def run() -> "tuple[BirthdayAnalysis, CollisionCheck]":
    return birthday_analysis(), monte_carlo_collision()


def report(results=None) -> str:
    analysis, check = results or run()
    print_banner("Section IV-B: birthday bound for two faults in one line")
    rows = [
        ("memory", f"{analysis.memory_bytes // (1 << 30)}GB ({analysis.n_lines:,} lines)"),
        ("faults before a shared line (~sqrt N)", f"{analysis.faults_for_collision:,.0f}"),
        ("P(next fault lands on faulty line)", f"{analysis.p_same_line:.3e}"),
        ("P(SECDED superior: same line, different word)", f"{analysis.p_secded_superior:.3e}"),
        ("years to two faults in a line (100x FIT)", f"{analysis.years_to_two_faults:,.0f}"),
    ]
    table = format_table(["Quantity", "Value"], rows)
    print(table)
    print(
        f"\nMonte-Carlo cross-check (N={check.n_lines:,}): mean faults to "
        f"collision {check.mean_faults_to_collision:,.0f} = "
        f"{check.ratio:.2f} x sqrt(N) (birthday bound predicts ~1.25)"
    )
    return table
