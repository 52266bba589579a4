"""Methodology: trace-seed variance of the performance results.

The transaction-level simulator shows chaotic sensitivity on
bandwidth-saturated workloads (bank/row alignment shifts with tiny timing
changes). This study quantifies the noise floor so headline numbers
(EXPERIMENTS.md) are interpreted with the right error bars, and checks
that the SafeGuard-vs-SGX ordering is robust across seeds.
"""

from typing import List

from repro.experiments.reporting import print_banner
from repro.perf.model import MultiSeedSummary, PerfConfig, run_comparison_multiseed
from repro.perf.organizations import safeguard, sgx_style

WORKLOADS = ["omnetpp", "fotonik3d", "gcc"]
SEEDS = (0, 1, 2)

#: Instructions (and warm-up instructions) per core; ``quick`` is ``paper``.
SCALES = {
    "smoke": dict(instructions_per_core=10_000, warmup_instructions=2_500),
    "quick": dict(instructions_per_core=80_000, warmup_instructions=20_000),
    "paper": dict(instructions_per_core=80_000, warmup_instructions=20_000),
}

CLAIMS = {
    "The trace-seed noise stays well below the effects measured: SafeGuard's sd under 3 %":
        lambda summaries: summaries[0].stdev < 3.0,
    "SGX-style is slower than SafeGuard on every trace seed":
        lambda summaries: all(
            a < b for a, b in zip(*(s.per_seed_slowdown_percent for s in summaries))
        ),
}


def run(instructions_per_core: int, warmup_instructions: int) -> List[MultiSeedSummary]:
    """SafeGuard's and then SGX-style's slowdowns across :data:`SEEDS`."""
    config = PerfConfig(
        instructions_per_core=instructions_per_core, warmup_instructions=warmup_instructions
    )
    summaries = run_comparison_multiseed(
        [safeguard(8), sgx_style(8)], SEEDS, workloads=WORKLOADS, config=config
    )
    return list(summaries.values())


def report(summaries: List[MultiSeedSummary]) -> None:
    print_banner("Methodology: trace-seed variance of the slowdowns")
    print(f"Slowdown across trace seeds (gmean over {len(WORKLOADS)} workloads):")
    for summary in summaries:
        values = ", ".join(f"{v:.2f}%" for v in summary.per_seed_slowdown_percent)
        print(
            f"  {summary.org_name:22s} mean={summary.mean:6.2f}%  "
            f"sd={summary.stdev:.2f}%  [{values}]"
        )
