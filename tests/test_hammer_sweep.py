"""Tests for the hammer sweeps behind Figures 1b and 1c.

Both figures sweep Row-Hammer attack patterns against mitigations as
attack-playbook grids (repro.rowhammer.playbook): Figure 1b crosses the
library's double-sided, many-sided and half-double scenarios with six
mitigations, and Figure 1c runs half-double against Graphene under each
scheme and seed, summed per scheme. These tests pin the grids the
figures plan, the mitigations they name, and the campaign behaviour they
inherit (determinism, resume, fingerprinted store cells, the index) at
a scale that runs in seconds; tests/test_experiments.py pins the
figures' values.
"""

import json
import os

import pytest

from repro.campaign import summarize_index
from repro.experiments import fig1b_attacks, fig1c_detection
from repro.rowhammer.mitigations import PARA
from repro.rowhammer.playbook import (
    DEFAULT_MITIGATIONS,
    PlaybookCell,
    PlaybookConfig,
    PlaybookOutcome,
    make_mitigation,
    plan_playbook,
    run_playbook,
)
from repro.switches import WORKERS


#: Figure 1c at a scale that runs in well under a second, yet still
#: makes conventional SECDED silently consume a corrupted word.
TINY = dict(rh_threshold=300, budget=20_000, seeds=(3, 5))

#: Points in the TINY Figure 1c grid: one per scheme per seed.
TINY_POINTS = len(fig1c_detection.SCHEMES) * len(TINY["seeds"])

#: A budget small enough for seconds, large enough that an unmitigated
#: double-sided attack crosses the threshold thousands of times.
SWEEP = PlaybookConfig(budget=6_000)


def tiny_fig1c(**options):
    return fig1c_detection.run(**{**TINY, **options})


def sweep_cells():
    return plan_playbook(
        scenarios=["double-sided", "half-double"],
        mitigations=["none", "graphene"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
        config=SWEEP,
    )


def cell_files(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("playbook-"))


class TestPlanSweep:
    def test_grid_shape_and_keys(self):
        """Every Figure 1b row label names a playbook scenario and
        mitigation, and the grid holds each pair exactly once."""
        cells = plan_playbook(
            scenarios=tuple(fig1b_attacks.ATTACKS),
            mitigations=tuple(fig1b_attacks.MITIGATIONS.values()),
            schemes=(fig1b_attacks.SCHEME,),
            seeds=(3, 5),
            config=PlaybookConfig(rh_threshold=600, budget=120_000),
        )
        assert len(cells) == 2 * 3 * 6
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len({cell.key for cell in cells}) == len(cells)
        assert {(cell.variant, cell.mitigation) for cell in cells} == {
            (attack, mitigation)
            for attack in fig1b_attacks.ATTACKS
            for mitigation in fig1b_attacks.MITIGATIONS.values()
        }

    def test_unknown_names_raise_eagerly(self, tmp_path):
        with pytest.raises(KeyError):
            tiny_fig1c(schemes=("no-such-scheme",), cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="unknown mitigation"):
            plan_playbook(mitigations=["para-fresh"], config=SWEEP)
        # Nothing ran, so nothing was stored.
        assert not list(tmp_path.iterdir())

    def test_default_mitigations_all_instantiable(self):
        assert set(DEFAULT_MITIGATIONS) == {"none", "para", "trr", "graphene"}
        config = PlaybookConfig(rh_threshold=600)
        for name in set(DEFAULT_MITIGATIONS) | set(fig1b_attacks.MITIGATIONS.values()):
            assert make_mitigation(name, config, seed=3) is not None
        # Figure 1b's PARA and BlockHammer are sized as the figure sizes them.
        sized = make_mitigation("para-sized", config, seed=3)
        stale = make_mitigation("para-stale", config, seed=3)
        assert sized.probability == PARA.sized_for(600).probability
        assert stale.probability == PARA.sized_for(139_000).probability
        assert make_mitigation("blockhammer", config, seed=3).design_threshold == 600


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        assert tiny_fig1c() == tiny_fig1c()

    def test_worker_count_never_changes_results(self):
        assert tiny_fig1c() == tiny_fig1c(workers=2)

    def test_generic_workers_env_is_honored(self):
        with WORKERS.override(1):
            expected = tiny_fig1c()
        with WORKERS.override(2):
            assert tiny_fig1c() == expected


class TestScience:
    def test_unmitigated_double_sided_breaks_through(self):
        outcomes = run_playbook(sweep_cells(), SWEEP)
        hit = outcomes[("double-sided", "none", "secded", 3)]
        assert hit.broke_through
        assert hit.lines_read > 0

    def test_safeguard_never_silently_corrupts(self):
        by = {outcome.organization: outcome for outcome in tiny_fig1c()}
        for name in ("SafeGuard (SECDED)", "SafeGuard (Chipkill)"):
            assert by[name].lines_read > 0
            assert by[name].silent_corruptions == 0
            assert by[name].detected_ue > 0
        # The sweep is not vacuous: without SafeGuard, SECDED consumes
        # corrupted data silently at this scale.
        assert by["Conventional SECDED"].security_risk

    def test_graphene_holds_at_design_threshold(self):
        outcomes = run_playbook(sweep_cells(), SWEEP)
        for (_, mitigation, _, _), outcome in outcomes.items():
            if mitigation == "graphene":
                assert not outcome.broke_through


class TestCache:
    def test_resume_loads_every_point(self, tmp_path):
        first = tiny_fig1c(cache_dir=str(tmp_path))
        snaps = []
        second = tiny_fig1c(cache_dir=str(tmp_path), progress=snaps.append)
        assert first == second
        assert snaps[-1].items_from_store == TINY_POINTS

    def test_config_change_recomputes_under_new_fingerprint(self, tmp_path):
        """Cells are named by fingerprint digest: a re-scoped campaign
        computes fresh cells and leaves the old ones behind."""
        tiny_fig1c(cache_dir=str(tmp_path))
        snaps = []
        tiny_fig1c(budget=15_000, cache_dir=str(tmp_path), progress=snaps.append)
        assert snaps[-1].items_from_store == 0
        assert len(cell_files(tmp_path)) == 2 * TINY_POINTS

    def test_foreign_science_at_the_same_path_is_stale(self, tmp_path):
        one_cell = dict(schemes=("secded",), seeds=(3,), cache_dir=str(tmp_path))
        first = tiny_fig1c(**one_cell)
        (name,) = cell_files(tmp_path)
        payload = json.loads((tmp_path / name).read_text())
        payload["fingerprint"]["seed"] = 999
        (tmp_path / name).write_text(json.dumps(payload))
        snaps = []
        second = tiny_fig1c(**one_cell, progress=snaps.append)
        assert first == second
        assert snaps[-1].rejected_stale == 1
        assert snaps[-1].items_from_store == 0

    def test_corrupt_cell_recomputed_and_reported(self, tmp_path):
        two_cells = dict(
            schemes=("secded", "safeguard-secded"), seeds=(3,), cache_dir=str(tmp_path)
        )
        first = tiny_fig1c(**two_cells)
        names = cell_files(tmp_path)
        assert len(names) == 2
        (tmp_path / names[0]).write_text("{torn")
        snaps = []
        second = tiny_fig1c(**two_cells, progress=snaps.append)
        assert first == second
        assert snaps[-1].rejected_corrupt == 1
        assert snaps[-1].items_from_store == 1

    def test_index_summarizes_the_campaign(self, tmp_path):
        tiny_fig1c(cache_dir=str(tmp_path))
        summary = summarize_index(str(tmp_path))
        assert summary["playbook"]["completed"] == TINY_POINTS


class TestOutcomeSerialization:
    def test_roundtrip(self):
        outcome = PlaybookOutcome(
            scenario="double-sided",
            variant="double-sided",
            mitigation="none",
            scheme="secded",
            seed=3,
            total_flips=10,
            intended_flips=4,
            mitigation_refreshes=2,
            blocked_activations=1,
            lines_read=16,
            corrected=3,
            detected_ue=1,
            silent_corruptions=2,
        )
        clone = PlaybookOutcome.from_json(json.loads(json.dumps(outcome.to_json())))
        assert clone == outcome
        assert clone.security_risk
        assert clone.broke_through


class TestCLI:
    def test_campaign_status_reads_a_sweep_store(self, tmp_path, capsys):
        from repro.__main__ import main

        tiny_fig1c(cache_dir=str(tmp_path))
        assert main(["campaign-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "playbook" in out
        assert "completed" in out

    def test_campaign_status_usage_errors(self, tmp_path):
        from repro.__main__ import main

        assert main(["campaign-status"]) == 2
        assert main(["campaign-status", str(tmp_path / "missing")]) == 1

    def test_rejects_misplaced_options(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="--engine"):
            run_experiment("fig1b", engine="fast")
        with pytest.raises(ValueError, match="--cache-dir"):
            run_experiment("table1", cache_dir="/tmp/x")

    def test_cell_key_is_index_free(self):
        cell = PlaybookCell(
            index=5, scenario="half-double", variant="half-double",
            mitigation="trr", scheme="chipkill", seed=7,
        )
        assert cell.key == ("half-double", "trr", "chipkill", 7)
