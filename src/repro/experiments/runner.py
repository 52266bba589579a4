"""Experiment dispatcher: run any paper table/figure by name.

Used by the CLI (``python -m repro <experiment>``) and handy from a REPL::

    from repro.experiments.runner import run_experiment, EXPERIMENTS
    run_experiment("fig6")
    run_experiment("fig6", workers=8)   # parallel Monte-Carlo, same output

Each runner declares the options it accepts as keyword parameters —
``workers``, ``scheme``, ``engine``, ``cache_dir``, ``profile_to``,
``store_url`` — and :func:`check_options` rejects any other from its
signature. The campaign experiments (fig1b/fig1c, fig6/fig7/fig10-13)
fan their cells across ``workers`` processes with bit-identical output.
"""

from __future__ import annotations

import inspect
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    fig1b_attacks,
    fig1c_detection,
    fig6_reliability_secded,
    fig10_reliability_chipkill,
    perf_figures,
    sec4b_birthday,
    sec4c_column_recovery,
    sec7_security,
    sec7e_mac_escape,
    table1_thresholds,
    table2_table3_config,
    table4_resiliency,
    table5_storage,
)
from repro.campaign import ProgressBase
from repro.core import registry
from repro.perf.model import PerfConfig


class _open_store:
    """Context manager for an optional ``--store-url`` networked store.

    ``None`` URL yields ``None`` (runners fall back to ``cache_dir`` /
    local behaviour); otherwise yields a connected
    :class:`repro.campaign.RemoteResultStore` and closes it — releasing
    any claims the run still holds — when the experiment finishes.
    """

    def __init__(self, store_url: Optional[str]):
        self.store_url = store_url
        self.store = None

    def __enter__(self):
        if self.store_url is None:
            return None
        from repro.campaign import RemoteResultStore

        self.store = RemoteResultStore(self.store_url)
        return self.store

    def __exit__(self, *exc) -> None:
        if self.store is not None:
            self.store.close()


def _print_progress(stats: ProgressBase) -> None:
    """Carriage-return progress line for interactive parallel runs.

    Works for every campaign family: the shared :class:`ProgressBase`
    interface (``items_done`` / ``items_total`` / ``describe``) is all it
    needs, whatever the domain calls its fields.
    """
    end = "\n" if stats.items_done == stats.items_total else "\r"
    print(f"  {stats.describe()}", end=end, file=sys.stderr, flush=True)


def _table1() -> None:
    table1_thresholds.report()


def _table2() -> None:
    table2_table3_config.report_table2()


def _table3() -> None:
    table2_table3_config.report_table3()


def _table4() -> None:
    table4_resiliency.report(table4_resiliency.run(trials=60))


def _table5() -> None:
    table5_storage.report()


def _fig1b(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        fig1b_attacks.report(
            fig1b_attacks.run(
                workers=workers, cache_dir=cache_dir, store=store, progress=progress
            )
        )


def _fig1c(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    cache_dir: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else fig1c_detection.SCHEMES
    with _open_store(store_url) as store:
        fig1c_detection.report(
            fig1c_detection.run(
                schemes=schemes,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
            )
        )


def _fig6(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else fig6_reliability_secded.SCHEMES
    with _open_store(store_url) as store:
        fig6_reliability_secded.report(
            fig6_reliability_secded.run(
                n_modules=100_000,
                workers=workers,
                progress=progress,
                schemes=schemes,
                engine=engine,
                store=store,
            )
        )


def _fig10(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else fig10_reliability_chipkill.SCHEMES
    fig10_reliability_chipkill.report(
        fig10_reliability_chipkill.run(
            n_modules=50_000,
            workers=workers,
            progress=progress,
            schemes=schemes,
            engine=engine,
        )
    )


_PERF_CONFIG = PerfConfig(instructions_per_core=150_000, warmup_instructions=40_000)
_PERF_WORKLOADS = ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]


def _fig7(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    profile_to: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_per_workload(
            perf_figures.run_fig7(
                workloads=_PERF_WORKLOADS,
                config=_PERF_CONFIG,
                scheme=scheme or "safeguard-secded",
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            ),
            "Figure 7: SafeGuard vs. conventional ECC",
        )
    if profile_to:
        from repro.perf.organizations import BASELINE_ECC, organization_for
        from repro.perf.profiling import profile_passes, write_profile

        report = profile_passes(
            _PERF_WORKLOADS,
            _PERF_CONFIG,
            [BASELINE_ECC, organization_for(scheme or "safeguard-secded", 8)],
        )
        write_profile(report, profile_to)
        print(f"per-pass fast-engine profile written to {profile_to}")


def _fig12(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_per_workload(
            perf_figures.run_fig12(
                workloads=_PERF_WORKLOADS,
                config=_PERF_CONFIG,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            ),
            "Figure 12: per-line MAC organizations",
        )


def _fig13(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_fig13(
            perf_figures.run_fig13(
                latencies=(8, 40, 80),
                workloads=["mcf", "omnetpp", "leela"],
                config=_PERF_CONFIG,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            )
        )


def _sec4b() -> None:
    sec4b_birthday.report()


def _sec4c() -> None:
    sec4c_column_recovery.report()


def _sec7() -> None:
    sec7_security.report()


def _sec7e() -> None:
    sec7e_mac_escape.report()


#: Experiment name -> runner. ``fig11`` aliases ``fig7`` (the SafeGuard
#: data path is identical in both organizations; see perf_figures).
EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "fig1a": _table1,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig10": _fig10,
    "fig11": _fig7,
    "fig12": _fig12,
    "fig13": _fig13,
    "sec4b": _sec4b,
    "sec4c": _sec4c,
    "sec7": _sec7,
    "sec7e": _sec7e,
}


#: The CLI flag of each runner option.
FLAGS = {
    "workers": "--workers",
    "scheme": "--scheme",
    "engine": "--engine",
    "cache_dir": "--cache-dir",
    "profile_to": "--profile",
    "store_url": "--store-url",
}


def check_options(label: str, target: Callable, options: Dict[str, object]) -> Dict[str, object]:
    """The given (non-None) ``options``, if ``target`` accepts them all.

    Raises ``ValueError`` naming the first option missing from
    ``target``'s signature (``label`` names the experiment or command),
    or when ``--store-url`` and ``--cache-dir`` are combined.
    """
    accepted = inspect.signature(target).parameters
    given = {option: value for option, value in options.items() if value is not None}
    for option in given:
        if option not in accepted:
            takes = ", ".join(FLAGS[name] for name in accepted if name in FLAGS)
            raise ValueError(
                f"{label} does not take {FLAGS[option]}; it takes {takes or 'no options'}"
            )
    if "store_url" in given and "cache_dir" in given:
        raise ValueError(
            "--store-url and --cache-dir are mutually exclusive: the "
            "networked store replaces the local cache directory"
        )
    return given


def experiment_names() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(
    name: str,
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
    cache_dir: Optional[str] = None,
    profile_to: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    """Run one experiment by name; raises KeyError for unknown names.

    The options (None means absent) go to the experiment's runner, which
    must accept each given one (:func:`check_options`): ``scheme`` (a registry name) restricts
    scheme-aware experiments to a single organization; ``engine``
    selects the Monte-Carlo or perf engine; ``cache_dir`` persists
    per-cell campaign results; ``store_url`` routes them through a
    shared networked store instead; ``profile_to`` additionally writes a
    per-pass cProfile dump of the fast perf engine.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        ) from None
    options = dict(
        workers=workers,
        scheme=scheme,
        engine=engine,
        cache_dir=cache_dir,
        profile_to=profile_to,
        store_url=store_url,
    )
    kwargs = check_options(f"experiment {name!r}", runner, options)
    if "scheme" in kwargs:
        registry.scheme(kwargs["scheme"])  # unknown scheme names fail with the full list
    runner(**kwargs)


def run_all(workers: Optional[int] = None) -> None:
    """Run every experiment at interactive scale (``workers`` where taken)."""
    seen = set()
    for name, runner in EXPERIMENTS.items():
        if runner in seen:
            continue
        seen.add(runner)
        takes_workers = "workers" in inspect.signature(runner).parameters
        run_experiment(name, workers=workers if takes_workers else None)
