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

    def gmean_slowdowns(self) -> Dict[str, float]:
        return {
            org: geomean_slowdown_percent(self.results, org)
            for org in self.organizations
        }


#: The three MAC organizations Figures 12/13 compare, by registry name.
MAC_SCHEMES = ("safeguard-secded", "sgx-mac", "synergy-mac")

_SMOKE = PerfConfig(n_cores=2, instructions_per_core=20_000, warmup_instructions=5_000)
_QUICK = PerfConfig(instructions_per_core=150_000, warmup_instructions=40_000)
_PAPER = PerfConfig(instructions_per_core=300_000, warmup_instructions=60_000)
#: Read-heavy, write-heavy and compute-bound profiles, for the quick scale.
_MIXED = ("perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms")

#: Per scale and figure, the arguments of ``run_fig7`` (Figures 7 and 11
#: share its run), ``run_fig12`` and ``run_fig13``; ``workloads=None`` is
#: the whole 17-profile suite.
SCALES = {
    "smoke": {
        "fig7": dict(workloads=("gcc", "omnetpp"), config=_SMOKE),
        "fig12": dict(workloads=("mcf",), config=_SMOKE),
        "fig13": dict(latencies=(8, 80), workloads=("omnetpp",), config=_SMOKE),
    },
    "quick": {
        "fig7": dict(workloads=_MIXED, config=_QUICK),
        "fig12": dict(workloads=_MIXED, config=_QUICK),
        "fig13": dict(
            latencies=(8, 40, 80), workloads=("mcf", "omnetpp", "leela"), config=_QUICK
        ),
    },
    "paper": {
        "fig7": dict(workloads=None, config=_PAPER),
        "fig12": dict(workloads=None, config=_PAPER),
        "fig13": dict(
            latencies=(8, 24, 40, 56, 80),
            workloads=("mcf", "omnetpp", "xz", "lbm", "bwaves", "leela"),
            config=_PAPER,
        ),
    },
}

#: The memory-heavy workloads on which Figure 11 would diverge from
#: Figure 7, if the Chipkill organization changed the data path.
FIG11_WORKLOADS = ("mcf", "omnetpp", "xalancbmk", "xz", "bwaves", "lbm", "fotonik3d", "roms")


def _slowdown(figure: "PerfFigure", index: int = 0, workloads=None) -> float:
    """Geometric-mean slowdown (%) of the figure's ``index``-th
    organization, over ``workloads`` (default: every row)."""
    rows = [r for r in figure.results if workloads is None or r.workload in workloads]
    return geomean_slowdown_percent(rows, figure.organizations[index])


#: Per figure, as :data:`SCALES`.
CLAIMS = {
    "fig7": {
        "SafeGuard slows the average workload by 0.7 % (Fig. 7): measured "
        "geometric mean in (-0.5 %, 3 %)":
            lambda figure: -0.5 < _slowdown(figure) < 3.0,
        "The worst workload, omnetpp, slows by 3.6 % (Fig. 7): every "
        "workload below 8 %":
            lambda figure: max(
                r.slowdown_percent(figure.organizations[0]) for r in figure.results
            ) < 8.0,
        "SafeGuard costs Chipkill the same 0.7 % (Fig. 11): geometric mean "
        "over the memory-heavy workloads in (-0.5 %, 4 %)":
            lambda figure: -0.5 < _slowdown(figure, workloads=FIG11_WORKLOADS) < 4.0,
    },
    "fig12": {
        "SafeGuard (0.7 %) < Synergy-style (7.8 %) < SGX-style (18.7 %) "
        "average slowdown (Fig. 12)":
            lambda figure: _slowdown(figure, 0) < _slowdown(figure, 2) < _slowdown(figure, 1),
        "SGX-style MACs cost 18.7 % (Fig. 12): measured above 8 %":
            lambda figure: _slowdown(figure, 1) > 8.0,
        "SafeGuard costs 0.7 % (Fig. 12): measured below 3 %":
            lambda figure: _slowdown(figure, 0) < 3.0,
    },
    "fig13": {
        "SafeGuard stays below SGX-style at every MAC latency, 5.8 % vs "
        "25 %+ at 80 cycles (Fig. 13)":
            lambda sweep: all(_slowdown(f, 0) < _slowdown(f, 1) for f in sweep.values()),
        "SafeGuard's slowdown grows with MAC latency, from 0.7 % at 8 cycles "
        "to 5.8 % at 80 (Fig. 13)":
            lambda sweep: _slowdown(sweep[max(sweep)]) > _slowdown(sweep[min(sweep)]),
    },
}


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
    latencies: Sequence[int],
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
