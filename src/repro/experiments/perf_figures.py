"""Performance figures: 7 (SECDED), 11 (Chipkill), 12 (MAC orgs), 13 (latency).

All four figures report performance normalized to the conventional-ECC
baseline under the Table II system. In the simulator the SafeGuard data
path is identical for the SECDED and Chipkill organizations (the MAC
check is the only recurring cost on the read critical path — the paper
reports the same 0.7% for both), so Figures 7 and 11 share a run; Figure
12 adds the SGX-style and Synergy-style organizations, and Figure 13
sweeps the MAC latency from 8 to 80 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.reporting import format_table, print_banner
from repro.perf.campaign import ProgressCallback, run_comparison_parallel
from repro.perf.model import (
    PerfConfig,
    WorkloadResult,
    geomean_slowdown_percent,
)
from repro.perf.organizations import PerfOrganization, organization_for


@dataclass
class PerfFigure:
    """Normalized-performance series for a set of organizations."""

    organizations: List[str]
    results: List[WorkloadResult]
    seeds: int = 1

    def gmean_slowdowns(self) -> Dict[str, float]:
        return {
            org: geomean_slowdown_percent(self.results, org)
            for org in self.organizations
        }


#: The three MAC organizations Figures 12/13 compare, by registry name.
MAC_SCHEMES = ("safeguard-secded", "sgx-mac", "synergy-mac")


def _run(
    organizations: Sequence[PerfOrganization],
    workloads: Optional[Sequence[str]],
    config: PerfConfig,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
    engine: Optional[str] = None,
) -> PerfFigure:
    """All perf figures go through the campaign engine.

    With the default ``workers=None`` (resolving to 1, absent a
    ``REPRO_WORKERS`` value or override) and no cache the engine degenerates to the
    sequential loop of :func:`repro.perf.model.run_comparison` with
    bit-identical results; ``workers``/``cache_dir`` only change how fast
    the grid is covered. ``engine`` (``"fast"``/``"reference"``, the
    CLI's ``--engine``) overrides ``config.engine``; unlike the execution
    knobs it *does* select between the statistically-equivalent
    simulation engines (see :mod:`repro.perf.fastpath`).
    """
    if engine is not None:
        config = replace(config, engine=engine)
    results = run_comparison_parallel(
        organizations,
        workloads=workloads,
        config=config,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        progress=progress,
    )
    return PerfFigure([o.name for o in organizations], results)


def run_fig7(
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    scheme: str = "safeguard-secded",
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
    engine: Optional[str] = None,
) -> PerfFigure:
    """Figure 7/11: SafeGuard vs. conventional ECC."""
    return _run(
        [organization_for(scheme, 8)],
        workloads,
        config or PerfConfig(),
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        progress=progress,
        engine=engine,
    )


def run_fig12(
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    engine: Optional[str] = None,
    store=None,
) -> PerfFigure:
    """Figure 12: SafeGuard vs. SGX-style vs. Synergy-style MAC."""
    return _run(
        [organization_for(name, 8) for name in MAC_SCHEMES],
        workloads,
        config or PerfConfig(),
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        engine=engine,
        store=store,
    )


def run_fig13(
    latencies: Sequence[int] = (8, 24, 40, 56, 80),
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    engine: Optional[str] = None,
    store=None,
) -> Dict[int, PerfFigure]:
    """Figure 13: sensitivity to MAC latency for the three organizations.

    The baseline cells are shared across latency points; with a
    ``cache_dir`` (or shared ``store``) the engine computes them once
    and reloads them for the remaining points of the sweep.
    """
    config = config or PerfConfig()
    out: Dict[int, PerfFigure] = {}
    for latency in latencies:
        out[latency] = _run(
            [organization_for(name, latency) for name in MAC_SCHEMES],
            workloads,
            config,
            workers=workers,
            cache_dir=cache_dir,
            progress=progress,
            engine=engine,
            store=store,
        )
    return out


def report_per_workload(figure: PerfFigure, title: str) -> str:
    print_banner(title)
    rows = []
    for r in figure.results:
        rows.append(
            [r.workload]
            + [f"{r.normalized_performance(org):.4f}" for org in figure.organizations]
        )
    rows.append(
        ["GMEAN"]
        + [
            f"{1.0 - geomean_slowdown_percent(figure.results, org) / 100.0:.4f}"
            for org in figure.organizations
        ]
    )
    table = format_table(["Workload"] + list(figure.organizations), rows)
    print(table)
    for org, slowdown in figure.gmean_slowdowns().items():
        print(f"{org}: {slowdown:.2f}% average slowdown")
    return table


def report_fig13(sweep: Dict[int, PerfFigure]) -> str:
    print_banner("Figure 13: performance sensitivity to MAC latency")
    headers = [
        name.split("(")[0] for name in next(iter(sweep.values())).organizations
    ]
    rows = []
    for latency, figure in sweep.items():
        slow = figure.gmean_slowdowns()
        rows.append(
            [latency] + [f"{slow[name]:.2f}%" for name in figure.organizations]
        )
    table = format_table(["MAC latency (cycles)"] + headers, rows)
    print(table)
    return table
