"""Unified campaign smoke: every adapter, 2 workers, one shared store.

CI's one-stop check that the generic campaign core works end to end for
all three campaign families, replacing the per-engine smoke steps it
grew out of:

1. **Monte-Carlo shards** (both faultsim engines): the 2-worker sharded
   run is bit-identical to the sequential loop, its shards stored as
   ordinary cells in the shared store.
2. **Performance cells** (both perf engines): the 2-worker grid is
   bit-identical to ``run_comparison``, and a second run reloads every
   cell from the shared store.
3. **Attack playbooks**: the library lints (every scenario compiles),
   and a 2-worker playbook campaign matches sequential and resumes from
   the shared store.
4. **Figure 1c** (a playbook grid) at the test scale: 2 workers, the
   sequential run and a fully cached rerun print the same table.
5. **Kill-and-resume**: a child process running the playbook grid is
   killed mid-campaign; the parent resumes from the partial store,
   recomputes only what is missing, and ends with identical results.
6. **Kill-and-resume over the network**: the same death, but through a
   live campaign server — the child's claims die with its socket, and
   the parent's 2-worker resume through a fresh
   :class:`RemoteResultStore` recomputes only the missing points.

All cached campaigns write into ONE shared store directory (cells are
fingerprint-named, so families cohabit), and the final step checks
``python -m repro campaign-status`` summarizes it.

Run locally: ``PYTHONPATH=src python scripts/ci_campaign_smoke.py``
"""

import os
import subprocess
import sys
import tempfile

from repro.campaign import summarize_index
from repro.experiments import fig1c_detection
from repro.faultsim.evaluators import SafeGuardSECDEDEvaluator, SECDEDEvaluator
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate
from repro.faultsim.parallel import simulate_parallel
from repro.perf.campaign import run_comparison_parallel
from repro.perf.model import PerfConfig, run_comparison
from repro.perf.organizations import safeguard
from repro.rowhammer.playbook import (
    PlaybookConfig,
    lint_scenarios,
    plan_playbook,
    run_playbook,
)


def check_faultsim(store: str) -> None:
    for engine, evaluator in (
        ("reference", SECDEDEvaluator(X8_SECDED_16GB)),
        ("fast", SafeGuardSECDEDEvaluator(X8_SECDED_16GB)),
    ):
        config = MonteCarloConfig(
            n_modules=10_000, seed=42, fit_multiplier=10.0, engine=engine
        )
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        parallel = simulate_parallel(
            evaluator,
            X8_SECDED_16GB,
            config,
            workers=2,
            shards=4,
            checkpoint_dir=store,
        )
        assert sequential.n_failed > 0
        assert parallel.fail_times == sequential.fail_times
        assert parallel.fail_probability == sequential.fail_probability
        assert parallel.failures_by_scope == sequential.failures_by_scope
        print(
            f"faultsim[{engine}] OK: {parallel.n_failed} failures, "
            f"2-worker result identical to sequential"
        )


def check_perf(store: str) -> None:
    for engine, workloads in (("reference", ["mcf", "gcc"]), ("fast", ["mcf", "lbm"])):
        config = PerfConfig(
            n_cores=2,
            instructions_per_core=12_000,
            warmup_instructions=3_000,
            engine=engine,
        )
        orgs = [safeguard(8)]
        sequential = run_comparison(orgs, workloads=workloads, config=config)
        parallel = run_comparison_parallel(
            orgs, workloads=workloads, config=config, workers=2, cache_dir=store
        )
        stats = []
        cached = run_comparison_parallel(
            orgs,
            workloads=workloads,
            config=config,
            workers=2,
            cache_dir=store,
            progress=stats.append,
        )
        for a, b, c in zip(sequential, parallel, cached):
            assert a.baseline == b.baseline == c.baseline
            assert a.results == b.results == c.results
        assert stats[-1].cells_from_cache == stats[-1].cells_total == 4
        print(
            f"perf[{engine}] OK: 2-worker grid identical to sequential, "
            f"all 4 cells reloaded from the shared store"
        )


PLAYBOOK_CONFIG = PlaybookConfig(budget=6_000)


def as_json(results):
    return {k: v.to_json() for k, v in results.items()}


def _env():
    return dict(
        os.environ,
        PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )


def playbook_cells():
    return plan_playbook(
        scenarios=["double-sided", "fuzzed-trr"],
        mitigations=["none", "trr"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
        config=PLAYBOOK_CONFIG,
    )


def check_playbook(store: str):
    """Lint, then sequential = 2-worker = cached; returns the sequential
    results as the resume legs' reference."""
    for line in lint_scenarios():
        print(f"  lint {line}")
    cells = playbook_cells()
    sequential = run_playbook(cells, PLAYBOOK_CONFIG)
    parallel = run_playbook(cells, PLAYBOOK_CONFIG, workers=2, cache_dir=store)
    stats = []
    cached = run_playbook(
        cells, PLAYBOOK_CONFIG, cache_dir=store, progress=stats.append
    )
    assert as_json(sequential) == as_json(parallel) == as_json(cached)
    assert stats[-1].items_from_store == len(cells)
    print(
        f"playbook OK: library lints, 2-worker grid identical to "
        f"sequential, all {len(cells)} points reloaded from the shared store"
    )
    return sequential


#: Figure 1c's test scale.
FIG1C_SCALE = fig1c_detection.SCALES["smoke"]


def check_fig1c(store: str) -> None:
    # 2 workers first: the sequential run then computes every attack in
    # this process instead of reusing a memo the workers inherited.
    parallel = fig1c_detection.run(**FIG1C_SCALE, workers=2, cache_dir=store)
    sequential = fig1c_detection.run(**FIG1C_SCALE)
    stats = []
    cached = fig1c_detection.run(
        **FIG1C_SCALE, cache_dir=store, progress=stats.append
    )
    assert parallel == sequential == cached
    assert stats[-1].items_from_store == stats[-1].items_total == 24
    assert not any(o.security_risk for o in sequential if "SafeGuard" in o.organization)
    print(
        "fig1c OK: 2-worker table identical to sequential, all 24 points "
        "reloaded from the shared store"
    )


#: Child payload for the kill-and-resume checks: runs the playbook grid
#: into the store at argv[1] (a directory, or a campaign server's
#: HOST:PORT with argv[2] == "remote") and hard-exits after the third
#: completed point — mid-campaign, like a CI timeout or an operator's
#: Ctrl-C; a remote child abandons its claims mid-lease.
_CHILD = """
import os, sys
from repro.campaign import RemoteResultStore
from repro.rowhammer.playbook import PlaybookConfig, plan_playbook, run_playbook

config = PlaybookConfig(budget=6_000)
cells = plan_playbook(
    scenarios=["double-sided", "fuzzed-trr"],
    mitigations=["none", "trr"],
    schemes=["secded", "safeguard-secded"],
    seeds=[3],
    config=config,
)

def die_after_three(snap):
    if snap.items_done >= 3:
        os._exit(1)

if sys.argv[2:] == ["remote"]:
    with RemoteResultStore(sys.argv[1]) as store:
        run_playbook(cells, config, store=store, progress=die_after_three)
else:
    run_playbook(cells, config, cache_dir=sys.argv[1], progress=die_after_three)
raise SystemExit("child was supposed to die mid-campaign")
"""


def _kill_child(*args) -> None:
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        env=_env(),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert child.returncode == 1, f"child exited {child.returncode}, expected the kill"


def check_kill_and_resume(store: str, reference) -> None:
    kill_store = os.path.join(store, "killed-playbook")
    _kill_child(kill_store)
    partial = summarize_index(kill_store).get("playbook", {"completed": 0})
    assert 0 < partial["completed"] < len(playbook_cells())
    stats = []
    resumed = run_playbook(
        playbook_cells(), PLAYBOOK_CONFIG, cache_dir=kill_store,
        progress=stats.append,
    )
    assert stats[-1].items_from_store == partial["completed"]
    assert as_json(resumed) == as_json(reference)
    print(
        f"kill-and-resume OK: child died after {partial['completed']} points, "
        f"resume recomputed only the remaining "
        f"{len(playbook_cells()) - partial['completed']}"
    )


def check_kill_and_resume_remote(store: str, reference) -> None:
    from repro.campaign import BackgroundServer, RemoteResultStore

    remote_store = os.path.join(store, "served-playbook")
    with BackgroundServer(remote_store) as server:
        _kill_child(server.url, "remote")
        partial = summarize_index(remote_store).get(
            "playbook", {"completed": 0}
        )
        assert 0 < partial["completed"] < len(playbook_cells())
        stats = []
        with RemoteResultStore(server.url) as resume_store:
            resumed = run_playbook(
                playbook_cells(),
                PLAYBOOK_CONFIG,
                workers=2,
                store=resume_store,
                progress=stats.append,
            )
    assert stats[-1].items_from_store == partial["completed"]
    assert as_json(resumed) == as_json(reference)
    print(
        f"networked kill-and-resume OK: child died holding claims after "
        f"{partial['completed']} points; 2-worker resume through the "
        f"server recomputed only the remaining "
        f"{len(playbook_cells()) - partial['completed']}"
    )


def check_status(store: str) -> None:
    summary = summarize_index(store)
    # 4 shards per engine, distinct schemes: 8 cells, 8 (scheme, shard) keys.
    assert summary["faultsim"]["cells"] == 8
    assert summary["faultsim"]["completed"] == 8
    # 4 cells per engine; "mcf" keys repeat across engines (distinct
    # fingerprints -> distinct cell files, same science key).
    assert summary["perf"]["cells"] == 8
    assert summary["perf"]["completed"] == 6
    # The playbook grid's points plus Figure 1c's 24.
    assert summary["playbook"]["completed"] == len(playbook_cells()) + 24
    status = subprocess.run(
        [sys.executable, "-m", "repro", "campaign-status", store],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert status.returncode == 0, status.stderr
    for family in ("faultsim", "perf", "playbook"):
        assert family in status.stdout, family
    print("campaign-status OK:")
    print(status.stdout.rstrip())


def main() -> int:
    with tempfile.TemporaryDirectory() as store:
        check_faultsim(store)
        check_perf(store)
        reference = check_playbook(store)
        check_fig1c(store)
        check_kill_and_resume(store, reference)
        check_kill_and_resume_remote(store, reference)
        check_status(store)
    print("unified campaign smoke: all adapters OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
