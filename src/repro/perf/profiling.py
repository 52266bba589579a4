"""cProfile instrumentation for the fast perf engine's three passes.

The fast engine (:mod:`repro.perf.fastpath`) factors one Figure-7 cell
into trace synthesis, an organization-independent content pass, and a
per-organization timing pass. Perf PRs against the engine should start
from a measured per-pass breakdown rather than guesses, so this module
profiles each pass separately over a workload grid and reports the
top-N functions by cumulative time in a JSON-friendly shape. The CLI
is ``python -m repro fig7 --profile OUT.json``: it profiles the grid of
the figure's ``--scale`` (``smoke``: 2 cores, 20K instructions each).

Scope notes: the content pass synthesizes its own traces, so synthesis
frames also appear inside the ``content`` section — the ``synthesis``
section isolates them. Each section accumulates one profiler across
every workload (and, for ``timing``, every organization), so the
numbers describe the grid, not a single cell.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from typing import List, Optional, Sequence

from repro.perf import fastpath
from repro.perf.model import PerfConfig
from repro.perf.organizations import BASELINE_ECC, PerfOrganization, safeguard

#: The three fast-engine passes, in execution order.
PASSES = ("synthesis", "content", "timing")


def _top_functions(profiler: cProfile.Profile, top_n: int) -> List[dict]:
    """The profiler's hottest ``top_n`` rows by cumulative time."""
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return rows[:top_n]


def profile_passes(
    workloads: Sequence[str],
    config: Optional[PerfConfig] = None,
    organizations: Optional[Sequence[PerfOrganization]] = None,
    top_n: int = 20,
) -> dict:
    """Profile synthesis/content/timing separately over a workload grid.

    Forces the fast engine's passes directly (the content memo is
    cleared per workload so every cell is really computed) and returns
    ``{"passes": {name: {"seconds", "top"}}, ...}`` with the top-N
    cumulative-time rows per pass, plus enough run metadata to compare
    two dumps.
    """
    from repro.cpu.workloads import profile as workload_profile

    config = config or PerfConfig()
    organizations = list(
        organizations if organizations is not None else [BASELINE_ECC, safeguard()]
    )
    profilers = {name: cProfile.Profile() for name in PASSES}
    seconds = dict.fromkeys(PASSES, 0.0)

    def timed(pass_name: str, fn, *args, **kwargs):
        profiler = profilers[pass_name]
        start = time.perf_counter()
        profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.disable()
            seconds[pass_name] += time.perf_counter() - start

    total = config.warmup_instructions + config.instructions_per_core
    for name in workloads:
        prof = workload_profile(name)
        for core in range(config.n_cores):
            timed("synthesis", fastpath._synthesize_trace, prof, core, config.seed, total)
        fastpath._CONTENT_MEMO.clear()
        content = timed(
            "content",
            fastpath._content_pass,
            prof,
            config.n_cores,
            config.seed,
            config.instructions_per_core,
            config.warmup_instructions,
        )
        if content is None or content is fastpath.DECLINED:
            continue  # all-L1 profile or declined cell: no timing pass to run
        for organization in organizations:
            timed("timing", fastpath._timing_pass, content, prof, organization, config)

    return {
        "workloads": list(workloads),
        "organizations": [org.name for org in organizations],
        "config": {
            "n_cores": config.n_cores,
            "instructions_per_core": config.instructions_per_core,
            "warmup_instructions": config.warmup_instructions,
            "seed": config.seed,
        },
        "passes": {
            name: {
                "seconds": round(seconds[name], 4),
                "top": _top_functions(profilers[name], top_n),
            }
            for name in PASSES
        },
    }


def write_profile(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")


def describe(report: dict, rows: int = 5) -> str:
    """A terminal-friendly per-pass summary of :func:`profile_passes`."""
    lines = []
    for name in PASSES:
        section = report["passes"][name]
        lines.append(f"{name:10s} {section['seconds']:8.3f}s")
        for row in section["top"][:rows]:
            lines.append(
                f"    {row['cumtime_s']:8.3f}s cum  {row['tottime_s']:8.3f}s tot  "
                f"{row['ncalls']:>9} calls  {row['function']}"
            )
    return "\n".join(lines)
