"""Self-tests of the repository benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

Most tests shrink the workloads to a minimal size; the output-check test
runs the real sizes on the held-out seed.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_repro()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: ``trace.unattributed_s`` may be at most this share of the traced wall time.
UNATTRIBUTED_SHARE = 0.15


@pytest.fixture
def minimal(monkeypatch):
    """Shrink every workload so a full benchmark run takes seconds."""
    monkeypatch.setattr(workloads, "FIG7_WORKLOADS", ("mcf", "lbm"))
    monkeypatch.setattr(workloads, "FIG7_INSTRUCTIONS", 4000)
    monkeypatch.setattr(workloads, "FIG7_WARMUP", 1000)
    monkeypatch.setattr(workloads, "PLAYBOOK_BUDGET", 400)
    monkeypatch.setattr(workloads, "FIG6_MODULES", 20_000)
    monkeypatch.setattr(workloads, "FIG10_MODULES", 4000)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "RESUME_MIN_S", 0.001)


def _run_main(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv)
    lines = stdout.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_names_the_emitted_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(minimal, name, trace):
    code, result = _run_main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= 1
    if trace:
        path = os.path.join(run.OUT, f"{name}-seed3-trace1.json")
        with open(path) as handle:
            record = json.load(handle)
        traced = record["passes"][-2]["seconds"] + record["passes"][-1]["seconds"]
        assert record["metrics"]["trace.unattributed_s"] < UNATTRIBUTED_SHARE * traced
        spans = os.path.join(run.ROOT, record["spans"])
        with open(spans) as handle:
            assert len(handle.readlines()) == record["spans_recorded"] + 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_across_runs_and_resume(minimal, tmp_path, name):
    digests = []
    for attempt in range(2):
        workload = workloads.create(name, workloads.DEFAULT_SEED, str(tmp_path / str(attempt)))
        workload.setup()
        try:
            cold, resumes = run.cycle(workload, 1, resume_min_s=0.001)
        finally:
            workload.close()
        digests +=[cold.digest] + [p.digest for p in resumes]
    assert len(set(digests)) == 1 and digests[0] is not None


@pytest.mark.parametrize("name", ["perf-fig7", "playbook-grid"])
def test_corrupt_cell_is_rejected_and_fails(minimal, tmp_path, name):
    workload = workloads.create(name, workloads.DEFAULT_SEED, str(tmp_path))
    workload.setup()
    try:
        store = workload.fresh_store()
        try:
            cold = run.run_pass(workload, store, 1, resume=False)
            cells = sorted(
                path
                for path in glob.glob(str(tmp_path / "**" / "*.json"), recursive=True)
                if not path.endswith(".jsonl")
            )
            with open(cells[0], "w") as handle:
                handle.write("{ truncated")
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                tracer.pass_no = 1
                resume = run.run_pass(workload, store, 1, resume=True)
            finally:
                tracer.uninstall()
        finally:
            workload.release_store(store)
    finally:
        workload.close()
    metrics = run.layer_metrics(
        workload, tracer, cold, cold, resume, config_wall=cold.seconds, requeues=0
    )
    assert metrics["campaign.rejected"] == 1
    assert resume.failed >= 1
    assert resume.digest == cold.digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_checks_hold_on_the_held_out_seed(tmp_path, name):
    workload = workloads.create(name, workloads.HELD_OUT_SEED, str(tmp_path))
    workload.setup()
    try:
        store = workload.fresh_store()
        try:
            result = workload.run(store, workload.workers, workloads.Tally())
        finally:
            workload.release_store(store)
    finally:
        workload.close()
    assert workload.failed_cells(result) == set()


def test_refuses_exported_switches():
    env = dict(os.environ, REPRO_PERF="fast")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "perf-fig7"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_PERF" in done.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perf-fig7", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speedometer_samples_its_cpu_and_stops():
    cpu = sorted(os.sched_getaffinity(0))[0]
    with hostspeed.Speedometer(cpu) as speed:
        process = speed._process
        start = time.monotonic()
        time.sleep(0.5)
        end = time.monotonic()
    assert process.poll() is not None
    assert len(speed.samples) >= hostspeed.MIN_SAMPLES
    assert 0.1 < speed.factor(start, end) < 10
    # A window shorter than a probe period borrows its nearest samples.
    assert speed.factor(end, end) > 0


def test_pinned_keeps_this_process_on_one_cpu_and_restores_it():
    before = os.sched_getaffinity(0)
    with hostspeed.pinned(2) as (main, spread):
        assert os.sched_getaffinity(0) == {main}
        assert spread == sorted(before)[:2]
        pid = os.fork()
        if pid == 0:  # a forked worker takes the workers' CPUs
            os._exit(0 if os.sched_getaffinity(0) == set(spread) else 1)
        assert os.waitpid(pid, 0)[1] == 0
    assert os.sched_getaffinity(0) == before
