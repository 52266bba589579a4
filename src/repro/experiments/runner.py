"""Experiment dispatcher: run any paper table, figure or study by name, at a declared scale.

Used by the CLI (``python -m repro <experiment>``, ``python -m repro
all``) and handy from a REPL::

    from repro.experiments.runner import run_all, run_experiment
    run_experiment("fig6")                              # the quick scale
    run_experiment("fig6", scale="paper", workers=8)    # parallel, same output
    run_all(scale="smoke", out="record.json")           # every artifact, checked

Each runner takes ``scale`` (a name from
:data:`repro.experiments.SCALE_NAMES`, sized by its module's ``SCALES``)
and declares the other options it accepts as keyword parameters —
``workers``, ``scheme``, ``engine``, ``cache_dir``, ``profile_to``,
``store_url`` — and :func:`check_options` rejects any other from its
signature. A runner prints the artifact's report and returns its result;
:data:`CLAIMS` holds the paper claims that result must satisfy. The
campaign experiments (fig1b/fig1c, fig6/fig7/fig10-13) fan their cells
across ``workers`` processes with bit-identical output.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    SCALE_NAMES,
    ablation_bamboo,
    ablation_blockhammer,
    ablation_crc_vs_mac,
    ablation_eager_correction,
    ablation_isolation,
    ablation_scrubbing,
    extension_fuzzer,
    failed_claims,
    fig1b_attacks,
    fig1c_detection,
    fig6_reliability_secded,
    fig10_reliability_chipkill,
    methodology_variance,
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
from repro.campaign import ProgressBase, resolve_workers
from repro.core import registry
from repro.experiments.reporting import format_table, print_banner

#: The scale of a run that names none.
DEFAULT_SCALE = "quick"


@contextmanager
def _open_store(store_url: Optional[str]):
    """The networked store at ``store_url`` (None: no store), closed —
    releasing any claims the run still holds — when the run ends."""
    if store_url is None:
        yield None
        return
    from repro.campaign import RemoteResultStore

    with RemoteResultStore(store_url) as store:
        yield store


def _print_progress(stats: ProgressBase) -> None:
    """Carriage-return progress line for interactive parallel runs.

    Works for every campaign family: the shared :class:`ProgressBase`
    interface (``items_done`` / ``items_total`` / ``describe``) is all it
    needs, whatever the domain calls its fields.
    """
    end = "\n" if stats.items_done == stats.items_total else "\r"
    print(f"  {stats.describe()}", end=end, file=sys.stderr, flush=True)


def _run_and_report(module, scale: str = DEFAULT_SCALE):
    """``module.run`` at ``scale``, then its report: the runner of every
    artifact that takes no option but its scale."""
    result = module.run(**module.SCALES[scale])
    module.report(result)
    return result


def _campaign(run, sizes: dict, report, workers=None, store_url=None, **options):
    """One campaign artifact: ``run(**sizes, **options)`` on ``workers``
    processes (with a progress line if several), through the networked
    store at ``store_url`` if one is given; then ``report`` its result."""
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        result = run(**sizes, workers=workers, store=store, progress=progress, **options)
    report(result)
    return result


def _schemes(scheme: Optional[str], module) -> tuple:
    """``scheme`` alone, else every scheme ``module`` compares."""
    return (scheme,) if scheme else module.SCHEMES


def _table2(scale=DEFAULT_SCALE):
    table2_table3_config.report_table2()


def _table3(scale=DEFAULT_SCALE):
    table2_table3_config.report_table3()


def _fig1b(scale=DEFAULT_SCALE, workers=None, cache_dir=None, store_url=None):
    module = fig1b_attacks
    return _campaign(
        module.run, module.SCALES[scale], module.report, workers, store_url, cache_dir=cache_dir
    )


def _fig1c(scale=DEFAULT_SCALE, workers=None, scheme=None, cache_dir=None, store_url=None):
    module = fig1c_detection
    return _campaign(
        module.run,
        module.SCALES[scale],
        module.report,
        workers,
        store_url,
        schemes=_schemes(scheme, module),
        cache_dir=cache_dir,
    )


def _fig6(
    scale=DEFAULT_SCALE, workers=None, scheme=None, engine=None, cache_dir=None, store_url=None
):
    module = fig6_reliability_secded
    return _campaign(
        module.run,
        module.SCALES[scale],
        module.report,
        workers,
        store_url,
        schemes=_schemes(scheme, module),
        engine=engine,
        cache_dir=cache_dir,
    )


def _fig10(
    scale=DEFAULT_SCALE, workers=None, scheme=None, engine=None, cache_dir=None, store_url=None
):
    module = fig10_reliability_chipkill
    return _campaign(
        module.run,
        module.SCALES[scale],
        module.report,
        workers,
        store_url,
        schemes=_schemes(scheme, module),
        engine=engine,
        cache_dir=cache_dir,
    )


def _fig7(
    scale=DEFAULT_SCALE,
    workers=None,
    scheme=None,
    cache_dir=None,
    engine=None,
    profile_to=None,
    store_url=None,
):
    sizes = perf_figures.SCALES[scale]["fig7"]
    scheme = scheme or "safeguard-secded"
    figure = _campaign(
        partial(perf_figures.run_fig7, scheme=scheme),
        sizes,
        partial(perf_figures.report_per_workload, title="Figure 7: SafeGuard vs. conventional ECC"),
        workers,
        store_url,
        cache_dir=cache_dir,
        engine=engine,
    )
    if profile_to:
        from repro.perf.organizations import BASELINE_ECC, organization_for
        from repro.perf.profiling import describe, profile_passes, write_profile

        report = profile_passes(
            [row.workload for row in figure.results],
            sizes["config"],
            [BASELINE_ECC, organization_for(scheme, 8)],
        )
        write_profile(report, profile_to)
        print(describe(report))
        print(f"per-pass fast-engine profile written to {profile_to}")
    return figure


def _fig12(scale=DEFAULT_SCALE, workers=None, cache_dir=None, engine=None, store_url=None):
    return _campaign(
        perf_figures.run_fig12,
        perf_figures.SCALES[scale]["fig12"],
        partial(perf_figures.report_per_workload, title="Figure 12: per-line MAC organizations"),
        workers,
        store_url,
        cache_dir=cache_dir,
        engine=engine,
    )


def _fig13(scale=DEFAULT_SCALE, workers=None, cache_dir=None, engine=None, store_url=None):
    return _campaign(
        perf_figures.run_fig13,
        perf_figures.SCALES[scale]["fig13"],
        perf_figures.report_fig13,
        workers,
        store_url,
        cache_dir=cache_dir,
        engine=engine,
    )


#: Experiment name -> its runner or, for an artifact that takes no option
#: but ``scale``, its module (run by :func:`_run_and_report`, answering
#: to the module's ``CLAIMS``). ``fig1a`` aliases ``table1`` and
#: ``fig11`` aliases ``fig7`` (the SafeGuard data path is identical in
#: both organizations; see perf_figures).
_ENTRIES = {
    "table1": table1_thresholds,
    "table2": _table2,
    "table3": _table3,
    "table4": table4_resiliency,
    "table5": table5_storage,
    "fig1a": table1_thresholds,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig10": _fig10,
    "fig11": _fig7,
    "fig12": _fig12,
    "fig13": _fig13,
    "sec4b": sec4b_birthday,
    "sec4c": sec4c_column_recovery,
    "sec7": sec7_security,
    "sec7e": sec7e_mac_escape,
    "ablation-bamboo": ablation_bamboo,
    "ablation-blockhammer": ablation_blockhammer,
    "ablation-crc-vs-mac": ablation_crc_vs_mac,
    "ablation-eager-correction": ablation_eager_correction,
    "ablation-isolation": ablation_isolation,
    "ablation-scrubbing": ablation_scrubbing,
    "extension-fuzzer": extension_fuzzer,
    "methodology-variance": methodology_variance,
}

#: Module -> its runner, one per module so an alias shares its run.
_SIZED = {
    entry: partial(_run_and_report, entry) for entry in _ENTRIES.values() if not callable(entry)
}

#: Experiment name -> runner.
EXPERIMENTS: Dict[str, Callable[..., object]] = {
    name: _SIZED.get(entry, entry) for name, entry in _ENTRIES.items()
}

#: Runner -> the claims its result must satisfy (sentence -> predicate).
CLAIMS: Dict[Callable[..., object], Dict[str, Callable[[object], bool]]] = {
    **{runner: module.CLAIMS for module, runner in _SIZED.items()},
    _table2: table2_table3_config.CLAIMS,
    _table3: table2_table3_config.CLAIMS,
    _fig1b: fig1b_attacks.CLAIMS,
    _fig1c: fig1c_detection.CLAIMS,
    _fig6: fig6_reliability_secded.CLAIMS,
    _fig7: perf_figures.CLAIMS["fig7"],
    _fig10: fig10_reliability_chipkill.CLAIMS,
    _fig12: perf_figures.CLAIMS["fig12"],
    _fig13: perf_figures.CLAIMS["fig13"],
}


#: The CLI flag of each global option (a runner's or command's keyword).
FLAGS = {
    "scale": "--scale",
    "out": "--out",
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
    for a ``scale`` that is not one of :data:`SCALE_NAMES`, or when
    ``--store-url`` and ``--cache-dir`` are combined.
    """
    accepted = inspect.signature(target).parameters
    given = {option: value for option, value in options.items() if value is not None}
    for option in given:
        if option not in accepted:
            takes = ", ".join(FLAGS[name] for name in accepted if name in FLAGS)
            raise ValueError(
                f"{label} does not take {FLAGS[option]}; it takes {takes or 'no options'}"
            )
    if "scale" in given and given["scale"] not in SCALE_NAMES:
        raise ValueError(
            f"--scale must be one of {', '.join(SCALE_NAMES)}, got {given['scale']!r}"
        )
    if "store_url" in given and "cache_dir" in given:
        raise ValueError(
            "--store-url and --cache-dir are mutually exclusive: the "
            "networked store replaces the local cache directory"
        )
    return given


def experiment_names() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(name: str, **options):
    """Run one experiment by name and return its result; raises KeyError
    for unknown names.

    The options (keys of :data:`FLAGS`; None means absent) go to the
    experiment's runner, which must accept each given one
    (:func:`check_options`): ``scale`` picks
    the sizes (default :data:`DEFAULT_SCALE`); ``scheme`` (a registry
    name) restricts scheme-aware experiments to a single organization;
    ``engine`` selects the Monte-Carlo or perf engine; ``cache_dir``
    persists per-cell campaign results; ``store_url`` routes them through
    a shared networked store instead; ``profile_to`` additionally writes
    a per-pass cProfile dump of the fast perf engine.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        ) from None
    kwargs = check_options(f"experiment {name!r}", runner, options)
    if "scheme" in kwargs:
        registry.scheme(kwargs["scheme"])  # unknown scheme names fail with the full list
    return runner(**kwargs)


def _commit() -> str:
    """The checkout's ``git describe --always --dirty``, or ``"unknown"``."""
    command = ["git", "describe", "--always", "--dirty"]
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        described = subprocess.run(command, cwd=here, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return described.stdout.strip() or "unknown"


def run_all(
    scale: str = DEFAULT_SCALE,
    out: Optional[str] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[str]:
    """Run every experiment once at ``scale`` and check its claims.

    Prints each report, then one line per artifact (wall seconds, claims
    held); ``workers`` and ``cache_dir`` reach the runners that take
    them. With ``out``, writes the record as JSON: the scale, commit,
    cpu_count and workers, and per experiment name its wall seconds and
    each claim's verdict (an alias repeats its artifact's entry and
    names it under ``same_run_as``). Returns the failed claims as
    ``"name: sentence"``, each also printed to stderr.
    """
    options = {"workers": workers, "cache_dir": cache_dir}
    record = {
        "scale": scale,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "workers": resolve_workers(workers),
        "artifacts": {},
    }
    artifacts = record["artifacts"]
    first_name: Dict[Callable[..., object], str] = {}
    failed: List[str] = []
    rows = []
    for name, runner in EXPERIMENTS.items():
        if runner in first_name:
            artifacts[name] = {**artifacts[first_name[runner]], "same_run_as": first_name[runner]}
            continue
        first_name[runner] = name
        accepted = inspect.signature(runner).parameters
        given = {key: value for key, value in options.items() if value and key in accepted}
        started = time.perf_counter()
        result = runner(scale=scale, **given)
        wall_s = time.perf_counter() - started
        missed = failed_claims(CLAIMS[runner], result)
        failed += [f"{name}: {sentence}" for sentence in missed]
        verdicts = {sentence: sentence not in missed for sentence in CLAIMS[runner]}
        artifacts[name] = {"wall_s": round(wall_s, 3), "claims": verdicts}
        rows.append((name, f"{wall_s:.1f}", f"{len(verdicts) - len(missed)}/{len(verdicts)}"))
    record["failed"] = failed

    print_banner(f"Claims at the {scale} scale")
    print(format_table(["Artifact", "Wall (s)", "Claims held"], rows))
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return failed
