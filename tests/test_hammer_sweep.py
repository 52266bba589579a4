"""Tests for the Row-Hammer attack-sweep campaign (repro.rowhammer.sweep)."""

import json
import os

import pytest

from repro.campaign import summarize_index
from repro.rowhammer.sweep import (
    DEFAULT_MITIGATIONS,
    SweepCell,
    SweepConfig,
    SweepOutcome,
    plan_sweep,
    run_sweep,
)
from repro.switches import WORKERS


#: Small enough to run in seconds, large enough that an unmitigated
#: double-sided attack crosses the threshold thousands of times.
TINY = SweepConfig(budget=6_000)


def tiny_cells():
    return plan_sweep(
        attacks=["double-sided", "half-double"],
        mitigations=["none", "graphene"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
    )


def as_json(results):
    return {key: outcome.to_json() for key, outcome in results.items()}


class TestPlanSweep:
    def test_grid_shape_and_keys(self):
        cells = plan_sweep(seeds=[3, 5])
        assert len(cells) == 2 * 4 * 4 * 4
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len({cell.key for cell in cells}) == len(cells)

    def test_unknown_names_raise_eagerly(self):
        with pytest.raises(ValueError, match="unknown attack"):
            plan_sweep(attacks=["rowpress"])
        with pytest.raises(ValueError, match="unknown mitigation"):
            plan_sweep(mitigations=["warlock"])
        with pytest.raises(KeyError):
            plan_sweep(schemes=["no-such-scheme"])

    def test_default_mitigations_all_instantiable(self):
        assert set(DEFAULT_MITIGATIONS) == {"none", "para", "trr", "graphene"}


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        cells = tiny_cells()
        assert as_json(run_sweep(cells, TINY)) == as_json(run_sweep(cells, TINY))

    def test_worker_count_never_changes_results(self):
        cells = tiny_cells()
        assert as_json(run_sweep(cells, TINY)) == as_json(
            run_sweep(cells, TINY, workers=2)
        )

    def test_generic_workers_env_is_honored(self):
        cells = tiny_cells()[:4]
        with WORKERS.override(1):
            expected = as_json(run_sweep(cells, TINY))
        with WORKERS.override(2):
            assert as_json(run_sweep(cells, TINY)) == expected


class TestScience:
    def test_unmitigated_double_sided_breaks_through(self):
        results = run_sweep(tiny_cells(), TINY)
        hit = results[("double-sided", "none", "secded", 3)]
        assert hit.broke_through
        assert hit.lines_read > 0

    def test_safeguard_never_silently_corrupts(self):
        for outcome in run_sweep(tiny_cells(), TINY).values():
            if outcome.scheme.startswith("safeguard"):
                assert outcome.silent_corruptions == 0

    def test_graphene_holds_at_design_threshold(self):
        results = run_sweep(tiny_cells(), TINY)
        for key, outcome in results.items():
            if outcome.mitigation == "graphene":
                assert not outcome.broke_through


class TestCache:
    def test_resume_loads_every_point(self, tmp_path):
        cells = tiny_cells()
        snaps = []
        first = run_sweep(cells, TINY, cache_dir=str(tmp_path))
        second = run_sweep(
            cells, TINY, cache_dir=str(tmp_path), progress=snaps.append
        )
        assert as_json(first) == as_json(second)
        assert snaps[-1].items_from_store == len(cells)

    def test_config_change_recomputes_under_new_fingerprint(self, tmp_path):
        """Cells are named by fingerprint digest: a re-scoped campaign
        simply computes fresh cells and leaves the old ones behind."""
        cells = tiny_cells()[:2]
        run_sweep(cells, TINY, cache_dir=str(tmp_path))
        snaps = []
        run_sweep(
            cells,
            SweepConfig(budget=5_000),
            cache_dir=str(tmp_path),
            progress=snaps.append,
        )
        assert snaps[-1].items_from_store == 0
        cell_files = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith("hammer-sweep-")
        ]
        assert len(cell_files) == 4

    def test_foreign_science_at_the_same_path_is_stale(self, tmp_path):
        cells = tiny_cells()[:1]
        first = run_sweep(cells, TINY, cache_dir=str(tmp_path))
        cell_file = next(
            name
            for name in os.listdir(tmp_path)
            if name.startswith("hammer-sweep-")
        )
        payload = json.loads((tmp_path / cell_file).read_text())
        payload["fingerprint"]["seed"] = 999
        (tmp_path / cell_file).write_text(json.dumps(payload))
        snaps = []
        second = run_sweep(
            cells, TINY, cache_dir=str(tmp_path), progress=snaps.append
        )
        assert as_json(first) == as_json(second)
        assert snaps[-1].rejected_stale == 1
        assert snaps[-1].items_from_store == 0

    def test_corrupt_cell_recomputed_and_reported(self, tmp_path):
        cells = tiny_cells()[:2]
        first = run_sweep(cells, TINY, cache_dir=str(tmp_path))
        cell_files = sorted(
            name
            for name in os.listdir(tmp_path)
            if name.startswith("hammer-sweep-")
        )
        assert len(cell_files) == 2
        (tmp_path / cell_files[0]).write_text("{torn")
        snaps = []
        second = run_sweep(
            cells, TINY, cache_dir=str(tmp_path), progress=snaps.append
        )
        assert as_json(first) == as_json(second)
        assert snaps[-1].rejected_corrupt == 1
        assert snaps[-1].items_from_store == 1

    def test_index_summarizes_the_campaign(self, tmp_path):
        cells = tiny_cells()
        run_sweep(cells, TINY, cache_dir=str(tmp_path))
        summary = summarize_index(str(tmp_path))
        assert summary["hammer-sweep"]["completed"] == len(cells)


class TestOutcomeSerialization:
    def test_roundtrip(self):
        outcome = SweepOutcome(
            attack="double-sided",
            mitigation="none",
            scheme="secded",
            seed=3,
            total_flips=10,
            intended_flips=4,
            mitigation_refreshes=2,
            lines_read=16,
            corrected=3,
            detected_ue=1,
            silent_corruptions=2,
        )
        clone = SweepOutcome.from_json(json.loads(json.dumps(outcome.to_json())))
        assert clone == outcome
        assert clone.security_risk
        assert clone.broke_through


class TestCLI:
    def test_campaign_status_reads_a_sweep_store(self, tmp_path, capsys):
        from repro.__main__ import main

        cells = tiny_cells()[:2]
        run_sweep(cells, TINY, cache_dir=str(tmp_path))
        assert main(["campaign-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hammer-sweep" in out
        assert "completed" in out

    def test_campaign_status_usage_errors(self, tmp_path):
        from repro.__main__ import main

        assert main(["campaign-status"]) == 2
        assert main(["campaign-status", str(tmp_path / "missing")]) == 1

    def test_hammer_sweep_is_wired_into_the_dispatcher(self):
        import inspect

        from repro.experiments.runner import EXPERIMENTS

        assert "hammer-sweep" in EXPERIMENTS
        options = inspect.signature(EXPERIMENTS["hammer-sweep"]).parameters
        assert {"workers", "scheme", "cache_dir", "store_url"} <= set(options)

    def test_rejects_misplaced_options(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="--engine"):
            run_experiment("hammer-sweep", engine="fast")
        with pytest.raises(ValueError, match="--cache-dir"):
            run_experiment("table1", cache_dir="/tmp/x")

    def test_cell_key_is_index_free(self):
        cell = SweepCell(
            index=5, attack="half-double", mitigation="trr",
            scheme="chipkill", seed=7,
        )
        assert cell.key == ("half-double", "trr", "chipkill", 7)
