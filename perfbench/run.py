#!/usr/bin/env python3
"""The repository benchmark: three campaign workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload perf-fig7 --seed 3 --seconds 36 --trace 0

Workloads (see :mod:`workloads`): ``perf-fig7``, ``playbook-grid``,
``reliability-mc``. The default seed is 3; the self-tests also check
seed 11.

Both modes keep this process on one CPU and the pool workers it forks on
the workload's CPUs (:func:`hostspeed.pinned`).

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up runs once in this process, then cold passes (result memos emptied,
a fresh store) each followed by resume passes against the store the cold
pass filled, until ``--seconds`` is used up; finally set-up is repeated in
fresh processes for ``setup_s``. Every pass runs with one in-process
worker. Meanwhile :mod:`hostspeed` samples this process's CPU, and
``setup_s``, ``wall_norm_s`` and ``resume_norm_s`` report each set-up or
pass at the reference speed (the raw ``setup_raw_s``, ``wall_s`` and
``resume_s`` are printed and recorded beside them). Every reported time
is a median.

``--trace 1`` reports the per-layer metrics: one untraced run with the
workload's own worker count, then repeated pairs of an untraced and a
traced run with one in-process worker (wrappers installed here do not
reach worker processes). Spans go to ``perfbench/out/``.

Every pass is checked: output checks per workload, every resume cell a
verified store hit, and the digest of every simulated statistic equal
across all passes. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (samples, digest, resolved configuration) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Switches that would silently change what the benchmark measures; the
#: benchmark pins engines and worker counts through arguments instead.
PINNED_ENV = (
    "REPRO_KERNELS",
    "REPRO_PERF",
    "REPRO_PERF_BATCH",
    "REPRO_FAULTSIM",
    "REPRO_SCHEDULER",
    "REPRO_WORKERS",
    "REPRO_MC_WORKERS",
    "REPRO_PERF_WORKERS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "resume_norm_s": "s",
    "peak_rss_mib": "MiB",
}

#: Raw medians of the normalized times, printed and recorded beside them.
RAW = {"setup_raw_s": "s", "wall_s": "s", "resume_s": "s"}

PER_LAYER = {
    "campaign.store_write_s": "s",
    "campaign.store_writes": "count",
    "campaign.store_load_s": "s",
    "campaign.fingerprint_s": "s",
    "campaign.serde_s": "s",
    "campaign.hit_ratio": "ratio",
    "campaign.rejected": "count",
    "campaign.wire_p50_ms": "ms",
    "campaign.wire_p95_ms": "ms",
    "campaign.fanout_efficiency": "ratio",
    "campaign.requeues": "count",
    "campaign.cell_p50_ms": "ms",
    "campaign.cell_p95_ms": "ms",
    "perf.synthesis_s": "s",
    "perf.content_s": "s",
    "perf.timing_s": "s",
    "perf.timing_events_per_s": "1/s",
    "perf.sim_instr_per_s": "1/s",
    "perf.content_memo_hit_ratio": "ratio",
    "perf.content_fallback_ratio": "ratio",
    "rowhammer.attack_s": "s",
    "rowhammer.activations_per_s": "1/s",
    "rowhammer.attack_memo_hit_ratio": "ratio",
    "rowhammer.victim_s": "s",
    "core.write_s": "s",
    "core.read_s": "s",
    "core.lines_read": "count",
    "core.clean_read_ratio": "ratio",
    "core.macs_per_read": "ratio",
    "mac.compute_s": "s",
    "mac.lines_per_s": "1/s",
    "ecc.codec_s": "s",
    "faultsim.vector_s": "s",
    "faultsim.scalar_s": "s",
    "faultsim.multi_fault_share": "ratio",
    "faultsim.modules_per_s": "1/s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Fresh processes that repeat set-up for ``setup_s``.
SETUP_PROBES = 5
#: Resume passes repeat until they add up to this long (one pass of the
#: Figure 7 grid takes a few milliseconds).
RESUME_MIN_S = 1.0
RESUME_MAX_PASSES = 250


class SetupError(RuntimeError):
    """The benchmark cannot run here; exit non-zero without a result."""


# -- one pass ----------------------------------------------------------------------


@dataclass
class PassResult:
    kind: str
    seconds: float
    #: ``time.monotonic()`` when the pass began and ended.
    start: float
    end: float
    attempted: int
    failed: int
    hits: int
    rejected: int
    digest: Optional[str]


def digest(statistics_by_cell: Dict[str, object]) -> str:
    canonical = json.dumps(statistics_by_cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_pass(workload, store, workers: int, resume: bool) -> PassResult:
    """One pass over every cell, timed, then checked.

    A cell fails if the pass raised, if the store rejected it, if it is
    a resume cell that did not come back as a verified hit, or if it
    fails the workload's output checks.
    """
    tally = workloads.Tally()
    kind = "resume" if resume else "cold"
    n = workload.n_cells
    start = time.monotonic()
    try:
        result = workload.run(store, workers, tally)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        end = time.monotonic()
        return PassResult(
            kind, end - start, start, end, n, n, tally.from_store, tally.rejected, None
        )
    end = time.monotonic()
    failed = len(workload.failed_cells(result))
    failed += n - tally.from_store if resume else tally.rejected
    return PassResult(
        kind,
        end - start,
        start,
        end,
        n,
        min(n, failed),
        tally.from_store,
        tally.rejected,
        digest(workload.statistics(result)),
    )


def cycle(workload, workers: int, resume_min_s: float = RESUME_MIN_S):
    """A cold pass on a fresh store, then resume passes against it."""
    store = workload.fresh_store()
    try:
        workload.reset_memos()
        cold = run_pass(workload, store, workers, resume=False)
        resumes: List[PassResult] = []
        while resume_min_s > 0:
            resumes.append(run_pass(workload, store, workers, resume=True))
            if (
                sum(p.seconds for p in resumes) >= resume_min_s
                or len(resumes) >= RESUME_MAX_PASSES
            ):
                break
    finally:
        workload.release_store(store)
    return cold, resumes


# -- the two modes -------------------------------------------------------------------


def measure(workload, args) -> dict:
    """End-to-end metrics (no instrumentation installed).

    Every pass runs in this process with one worker: on a host with few
    CPUs, pool workers beside this process and the campaign server's
    thread time the scheduler more than the program (the fan-out is run
    by ``--trace 1``). A :class:`hostspeed.Speedometer` samples this
    process's CPU from the first pass to the last set-up probe, and every
    time is reported at the reference speed; the raw times are kept
    beside them.
    """
    workload.setup()
    samples = defaultdict(list)
    passes: List[PassResult] = []
    cycles = []
    setups = []
    with hostspeed.Speedometer(args.main_cpu) as speed:
        deadline = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            cold, resumes = cycle(workload, 1)
            passes += [cold, *resumes]
            cycles.append((cold, resumes))
            now = time.monotonic()
            if now + (now - began) > deadline:  # the next cycle would overrun
                break
        # This process's high-water mark over set-up and every pass.
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples["peak_rss_mib"].append(kib / 1024.0)
        for _ in range(SETUP_PROBES):
            start = time.monotonic()
            setup_probe(args)
            setups.append((start, time.monotonic()))
    for start, end in setups:
        samples["setup_raw_s"].append(end - start)
        samples["setup_s"].append((end - start) * speed.factor(start, end))
    for i, (cold, resumes) in enumerate(cycles):
        # The first cold pass pays for what the process builds once (heap
        # growth, lazily filled caches); it is checked and recorded only.
        if i > 0 or len(cycles) == 1:
            samples["wall_s"].append(cold.seconds)
            samples["wall_norm_s"].append(cold.seconds * speed.factor(cold.start, cold.end))
        for p in resumes:
            samples["resume_s"].append(p.seconds)
            samples["resume_norm_s"].append(p.seconds * speed.factor(p.start, p.end))
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    raw = {name: statistics.median(samples[name]) for name in RAW}
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "raw_metrics": raw,
        "samples": samples,
        "passes": passes,
        "probe_samples": len(speed.samples),
        "probe_median_s": statistics.median(s for _, s in speed.samples),
    }


def traced(workload, args) -> dict:
    """Per-layer metrics from traced one-worker runs."""
    import tracing

    workload.setup()
    # The workload's own configuration, untraced, for the fan-out metrics.
    # It also takes the first cold run of the process, which pays for
    # heap growth that later runs reuse.
    with tracing.counting_requeues() as counter:
        config_run, _ = cycle(workload, workload.workers, resume_min_s=0)
    requeues = counter["submits"] - counter["groups"]
    passes: List[PassResult] = [config_run]
    reps = []
    deadline = time.monotonic() + args.seconds
    while True:
        began = time.monotonic()
        plain, _ = cycle(workload, 1, resume_min_s=0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            store = workload.fresh_store()
            try:
                workload.reset_memos()
                cold = run_pass(workload, store, 1, resume=False)
                tracer.pass_no = 1
                resume = run_pass(workload, store, 1, resume=True)
            finally:
                workload.release_store(store)
        finally:
            tracer.uninstall()
        passes += [plain, cold, resume]
        reps.append((tracer, plain, cold, resume))
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
    config_wall = (
        config_run.seconds
        if workload.workers > 1
        else statistics.median(plain.seconds for _, plain, _, _ in reps)
    )
    per_rep = [
        layer_metrics(workload, *rep, config_wall=config_wall, requeues=requeues)
        for rep in reps
    ]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in PER_LAYER}
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload.name}-seed{workload.seed}-spans.jsonl")
    reps[-1][0].dump(spans_path, {"workload": workload.name, "seed": workload.seed})
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "samples": {name: [m[name] for m in per_rep] for name in PER_LAYER},
        "passes": passes,
        "spans": os.path.relpath(spans_path, ROOT),
        "spans_recorded": len(reps[-1][0].spans),
    }


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload, tracer, plain, cold, resume, *, config_wall: float, requeues: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced cold + resume pair."""
    selfs = tracer.self_times()
    counts = tracer.counts
    cells = tracer.durations("campaign.cell", 0)
    wire = [1000.0 * seconds for seconds in tracer.durations("campaign.wire")]
    perf_s = selfs["perf.synthesis"] + selfs["perf.content"] + selfs["perf.timing"]
    vector_s = selfs["faultsim.vector"] + selfs["faultsim.draw"]
    mac_lines = tracer.outermost_work("mac.compute")
    traced_wall = cold.seconds + resume.seconds
    covered = tracer.top_level_seconds(0) + tracer.top_level_seconds(1)
    return {
        "campaign.store_write_s": selfs["campaign.store_write"],
        "campaign.store_writes": len(tracer.durations("campaign.store_write")),
        "campaign.store_load_s": selfs["campaign.store_load"],
        "campaign.fingerprint_s": selfs["campaign.fingerprint"],
        "campaign.serde_s": selfs["campaign.serde"],
        "campaign.hit_ratio": _ratio(resume.hits, resume.attempted),
        "campaign.rejected": cold.rejected + resume.rejected,
        "campaign.wire_p50_ms": _quantile(wire, 0.50),
        "campaign.wire_p95_ms": _quantile(wire, 0.95),
        "campaign.fanout_efficiency": _ratio(sum(cells), workload.workers * config_wall),
        "campaign.requeues": requeues,
        "campaign.cell_p50_ms": 1000.0 * _quantile(cells, 0.50),
        "campaign.cell_p95_ms": 1000.0 * _quantile(cells, 0.95),
        "perf.synthesis_s": selfs["perf.synthesis"],
        "perf.content_s": selfs["perf.content"],
        "perf.timing_s": selfs["perf.timing"],
        "perf.timing_events_per_s": _ratio(
            counts["perf.timing_events"], selfs["perf.timing"]
        ),
        "perf.sim_instr_per_s": _ratio(counts["perf.instructions"], perf_s),
        "perf.content_memo_hit_ratio": _ratio(
            counts["perf.content_hits"], counts["perf.content_passes"]
        ),
        "perf.content_fallback_ratio": _ratio(
            counts["perf.content_fallbacks"], counts["perf.content_computed"]
        ),
        "rowhammer.attack_s": selfs["rowhammer.attack"],
        "rowhammer.activations_per_s": _ratio(
            counts["rowhammer.activations"], selfs["rowhammer.attack"]
        ),
        "rowhammer.attack_memo_hit_ratio": (
            1.0 - _ratio(counts["rowhammer.attack_runs"], counts["playbook.cells"])
            if counts["playbook.cells"]
            else 0.0
        ),
        "rowhammer.victim_s": selfs["rowhammer.victim"],
        "core.write_s": selfs["core.write"],
        "core.read_s": selfs["core.read"],
        "core.lines_read": counts["core.reads"],
        "core.clean_read_ratio": _ratio(counts["core.clean_reads"], counts["core.reads"]),
        "core.macs_per_read": _ratio(
            tracer.outermost_work("mac.compute", inside="core.read"), counts["core.reads"]
        ),
        "mac.compute_s": selfs["mac.compute"],
        "mac.lines_per_s": _ratio(mac_lines, selfs["mac.compute"]),
        "ecc.codec_s": selfs["ecc.codec"],
        "faultsim.vector_s": vector_s,
        "faultsim.scalar_s": selfs["faultsim.scalar"],
        "faultsim.multi_fault_share": _ratio(
            counts["faultsim.multi_fault_modules"], counts["faultsim.busy_modules"]
        ),
        "faultsim.modules_per_s": _ratio(
            counts["faultsim.modules"], vector_s + selfs["faultsim.scalar"]
        ),
        "trace.unattributed_s": traced_wall - covered,
        "trace.overhead_s": cold.seconds - plain.seconds,
    }


# -- set-up, configuration, output ---------------------------------------------------


def setup_probe(args) -> float:
    """Wall time of a fresh process doing this workload's set-up."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"set-up probe exited with {done.returncode}")
    return seconds


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    toplevel, commit = lines
    return commit if os.path.realpath(toplevel) == os.path.realpath(ROOT) else "unknown"


def source_digest() -> str:
    """SHA-256 over every source file, so a checkout without git history
    still identifies the code it measured."""
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        sha.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def configuration(workload) -> dict:
    """The resolved modes and host facts every result is recorded with."""
    import numpy

    from repro.campaign import resolve_scheduler, resolve_workers
    from repro.ecc import kernels
    from repro.perf import fastpath

    return {
        "kernel_mode": kernels.kernel_mode(),
        "perf_engine": "fast",
        "perf_pass_modes": list(fastpath.pass_modes()),
        "faultsim_engine": "fast",
        "scheduler": resolve_scheduler(None),
        "workers": resolve_workers(workload.workers),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_repro() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        print(
            f"refusing to run: {', '.join(pinned)} exported; the benchmark "
            "pins engines and worker counts itself",
            file=sys.stderr,
        )
        return 2
    try:
        import_repro()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(
                f"unknown workload {args.workload!r}; "
                f"known: {', '.join(workloads.WORKLOADS)}"
            )
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        workload = workloads.create(args.workload, args.seed, workdir)
        try:
            with hostspeed.pinned(workload.workers) as (args.main_cpu, _):
                if args.setup_only:
                    workload.setup()
                    return 0
                report = traced(workload, args) if args.trace else measure(workload, args)
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    return finish(workload, args, report)


def finish(workload, args, report: dict) -> int:
    passes: List[PassResult] = report.pop("passes")
    digests = {p.digest for p in passes if p.digest is not None}
    reference = next((p.digest for p in passes if p.digest is not None), None)
    failed = 0
    for p in passes:
        # A pass whose statistics differ from the first one's failed
        # every cell: the same seed must simulate the same results.
        failed += p.attempted if p.digest != reference else p.failed
    attempted = sum(p.attempted for p in passes)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configuration": configuration(workload),
        "digest": reference,
        "digest_consistent": len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "passes": [asdict(p) for p in passes],
        **report,
    }
    path = os.path.join(OUT, f"{workload.name}-seed{workload.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    units = report["units"]
    for name, value in report["metrics"].items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    for name, value in report.get("raw_metrics", {}).items():
        print(f"{workload.name} {name} (raw, not normalized) = {value:.6g} {RAW[name]}")
    print(
        f"{workload.name} failed_frac = {record['failed_frac']:.6g} "
        f"({failed}/{attempted} cells), digest {reference}, "
        f"config {json.dumps(record['configuration'], sort_keys=True)}"
    )
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
