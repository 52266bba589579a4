"""Tests for the attack-playbook format and compiler
(repro.rowhammer.attacks) and the scenario library and campaign built
on it (repro.rowhammer.playbook).

Also hosts the regression tests for the attack substrate: library and
genome playbooks must replay the legacy generators bit-identically, the
edge policy must keep rows inside the bank, and the REF-period default
must be the one derived constant.
"""

import inspect
import json

import pytest

from repro.campaign import summarize_index
from repro.dram.timing import max_activations_per_refresh_window
from repro.rowhammer import playbook as pb
from repro.rowhammer.attacks import (
    AttackPattern,
    PlaybookSpec,
    RowSpec,
    SchedulePhase,
    compile_playbook,
    compile_schedule,
    expand_spec,
)
from repro.rowhammer.fuzzer import PatternGenome
from repro.rowhammer.model import DEFAULT_REF_PERIOD, REFS_PER_WINDOW
from repro.rowhammer import runner as runner_module

#: Small enough for seconds-scale campaign tests; the science pins use
#: the real default regime instead.
TINY = pb.PlaybookConfig(budget=6_000)


def tiny_cells():
    return pb.plan_playbook(
        scenarios=["double-sided", "many-sided"],
        mitigations=["none", "trr"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
        config=TINY,
    )


def as_json(results):
    return {key: outcome.to_json() for key, outcome in results.items()}


def library(name, base_row, n_rows=128, **fields):
    """The library scenario ``name`` at ``base_row``, with ``fields``
    overriding its dict (e.g. another edge policy)."""
    spec = PlaybookSpec.from_dict({**pb.scenario(name).to_dict(), **fields})
    return compile_playbook(spec, base_row=base_row, n_rows=n_rows)


def genome_playbook(genome, victim=64):
    """A genome's playbook compiled at ``victim``, as the fuzzer scores it."""
    spec = PlaybookSpec.from_dict(genome.to_playbook("genome"))
    return compile_playbook(spec, base_row=victim, n_rows=128)


#: TRRespass as the legacy generator hammered it: flush rows at stride 7,
#: 74-151 around victim 64, past the 128-row bank (compile it without
#: ``n_rows`` to keep them).
STRIDE_7_TRRESPASS = {
    "name": "many-sided(stride 7)",
    "victims": [0],
    "min_fill": 2,
    "phases": [
        {"rows": [-1, 1], "restart": True},
        {"rows": [10 + 7 * i for i in range(12)], "reads": 6},
    ],
}


# ---------------------------------------------------------------------------
# Legacy generators, replicated verbatim from the pre-compiler code, as
# the bit-identity reference for the shared schedule compiler.
# ---------------------------------------------------------------------------


def _legacy_round_robin(rows):
    def schedule(budget, ref_period):
        i = 0
        issued = 0
        while issued < budget:
            yield rows[i % len(rows)]
            i += 1
            issued += 1

    return schedule


def _legacy_many_sided(victim, n_dummies=12, dummy_stride=7, flush_burst=6):
    true_pair = [victim - 1, victim + 1]
    dummies = [victim + 10 + i * dummy_stride for i in range(n_dummies)]

    def schedule(budget, ref_period):
        hammer_slots = max(2, ref_period - flush_burst)
        issued = 0
        dummy_index = 0
        while issued < budget:
            for i in range(min(hammer_slots, budget - issued)):
                yield true_pair[i % 2]
                issued += 1
            for _ in range(min(flush_burst, budget - issued)):
                yield dummies[dummy_index % len(dummies)]
                dummy_index += 1
                issued += 1

    return schedule


def _legacy_genome(genome, victim):
    rows = []
    for offset, weight in genome.aggressors:
        rows.extend([victim + offset] * weight)
    flush = [victim + offset for offset in genome.flush_rows]

    def schedule(budget, ref_period):
        hammer_slots = max(1, ref_period - genome.flush_burst * bool(flush))
        issued = 0
        i = 0
        j = 0
        while issued < budget:
            for _ in range(min(hammer_slots, budget - issued)):
                yield rows[i % len(rows)]
                i += 1
                issued += 1
            if flush:
                for _ in range(min(genome.flush_burst, budget - issued)):
                    yield flush[j % len(flush)]
                    j += 1
                    issued += 1

    return schedule


REGIMES = [(2000, 21), (1000, 1), (5003, 15)]


class TestCompilerBitIdentity:
    @pytest.mark.parametrize("budget,ref_period", REGIMES)
    def test_factories_replay_legacy_streams(self, budget, ref_period):
        """The library playbooks replay the legacy single-, double-sided,
        Half-Double and (stride-7) TRRespass generators."""
        pairs = [
            (library("one-location", 65), _legacy_round_robin([64])),
            (library("double-sided", 64), _legacy_round_robin([63, 65])),
            (library("half-double", 64), _legacy_round_robin([62, 66])),
            (
                compile_playbook(
                    PlaybookSpec.from_dict(STRIDE_7_TRRESPASS), base_row=64
                ),
                _legacy_many_sided(64),
            ),
        ]
        for pattern, legacy in pairs:
            assert list(pattern.activations(budget, ref_period)) == list(
                legacy(budget, ref_period)
            ), pattern.name

    @pytest.mark.parametrize("budget,ref_period", REGIMES)
    def test_many_sided_factory_is_the_library_scenario(self, budget, ref_period):
        """The library's ``many-sided`` is the legacy TRRespass at stride
        4, inside the bank."""
        stream = list(library("many-sided", 64).activations(budget, ref_period))
        assert stream == list(
            _legacy_many_sided(64, dummy_stride=4)(budget, ref_period)
        )
        assert max(stream) < 128

    @pytest.mark.parametrize("budget,ref_period", REGIMES)
    def test_genome_replays_legacy_stream(self, budget, ref_period):
        flushing = PatternGenome(
            aggressors=((1, 4), (-1, 2)), flush_rows=(30, 14, 25), flush_burst=4
        )
        plain = PatternGenome(aggressors=((1, 3),), flush_rows=(), flush_burst=0)
        for genome in (flushing, plain):
            assert list(genome_playbook(genome).activations(budget, ref_period)) == list(
                _legacy_genome(genome, 64)(budget, ref_period)
            )

    def test_schedule_yields_exactly_budget(self):
        schedule = compile_schedule(
            [
                SchedulePhase(rows=(1, 2), restart=True),
                SchedulePhase(rows=(9,), reads=3),
            ],
            min_fill=2,
        )
        assert len(list(schedule(5003, 17))) == 5003

    def test_compiler_validation(self):
        with pytest.raises(ValueError, match="at least one phase"):
            compile_schedule([])
        with pytest.raises(ValueError, match="at most one phase may fill"):
            compile_schedule(
                [SchedulePhase(rows=(1,)), SchedulePhase(rows=(2,))]
            )
        with pytest.raises(ValueError, match="no rows"):
            compile_schedule([SchedulePhase(rows=())])
        with pytest.raises(ValueError, match="reads must be >= 1"):
            compile_schedule([SchedulePhase(rows=(1,), reads=0)])


class TestEdgePolicy:
    """Regression: attacks at the bank edge used to emit out-of-range
    rows — hammering one row at row 0 listed victim -1, double-sided
    hammering of row 0 hammered row -1."""

    def test_single_sided_at_row_zero_drops_missing_victim(self):
        pattern = library("one-location", 1)
        assert pattern.aggressors == (0,)
        assert pattern.intended_victims == (1,)

    def test_double_sided_at_row_zero_never_hammers_below_the_bank(self):
        pattern = library("double-sided", 0)
        assert pattern.aggressors == (1,)
        assert min(pattern.activations(500, 10)) >= 0

    def test_upper_edge_clamps_into_the_bank(self):
        pattern = library("double-sided", 127)
        assert pattern.aggressors == (126,)
        assert max(pattern.activations(500, 10)) < 128

    def test_error_policy_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside the bank"):
            library("double-sided", 0, edge_policy="error")

    def test_drop_policy_discards_without_clamping(self):
        pattern = library("many-sided", 64, n_rows=100, edge_policy="drop")
        assert all(row < 100 for row in pattern.aggressors)
        clamped = library("many-sided", 64, n_rows=100, edge_policy="clamp")
        assert 99 in clamped.aggressors

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown edge policy"):
            library("one-location", 5, edge_policy="wrap")


class TestRefPeriodConstant:
    """Regression: the REF cadence default was a stale literal (166)
    duplicated per layer; it is now derived once in the model."""

    def test_default_is_derived_from_the_timing_model(self):
        assert DEFAULT_REF_PERIOD == max(
            1, max_activations_per_refresh_window() // REFS_PER_WINDOW
        )

    def test_attack_default_is_the_model_constant(self):
        parameter = inspect.signature(AttackPattern.activations).parameters[
            "ref_period"
        ]
        assert parameter.default == DEFAULT_REF_PERIOD

    def test_runner_shares_the_model_constant(self):
        assert runner_module.REFS_PER_WINDOW == REFS_PER_WINDOW


class TestGenomeValidation:
    """Regression: an all-zero-weight genome used to crash with
    ZeroDivisionError when compiled, and flush offsets in {-1, 0, +1}
    silently mis-scored genomes."""

    def test_all_zero_weights_rejected_at_construction(self):
        with pytest.raises(ValueError, match="every aggressor weight is 0"):
            PatternGenome(aggressors=((1, 0), (-2, 0)), flush_rows=(), flush_burst=0)

    def test_empty_aggressors_rejected(self):
        with pytest.raises(ValueError, match="at least one aggressor"):
            PatternGenome(aggressors=(), flush_rows=(), flush_burst=0)

    def test_victim_touching_offsets_rejected(self):
        with pytest.raises(ValueError, match="offset 0 is forbidden"):
            PatternGenome(aggressors=((0, 2),), flush_rows=(), flush_burst=0)
        for offset in (-1, 0, 1):
            with pytest.raises(ValueError, match="flush offset"):
                PatternGenome(
                    aggressors=((2, 1),), flush_rows=(30, offset), flush_burst=2
                )

    def test_fuzzer_only_produces_valid_genomes(self):
        from repro.rowhammer.fuzzer import PatternFuzzer
        from repro.rowhammer.mitigations import NoMitigation

        fuzzer = PatternFuzzer(NoMitigation, seed=5)
        genome = fuzzer.random_genome()
        for _ in range(200):
            genome = fuzzer.mutate(genome)  # __post_init__ would raise
            assert all(offset != 0 for offset, _ in genome.aggressors)
            assert all(o not in (-1, 0, 1) for o in genome.flush_rows)


class TestFormat:
    def test_round_trip_is_stable(self):
        spec = pb.scenario("many-sided")
        payload = json.loads(json.dumps(spec.to_dict()))
        again = PlaybookSpec.from_dict(payload)
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_int_row_entries_are_offsets(self):
        spec = PlaybookSpec.from_dict(
            {"name": "x", "victims": [0], "phases": [{"rows": [-1, 1]}]}
        )
        assert spec.phases[0].rows[0] == RowSpec(offset=-1)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown playbook field"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [0], "phases": [{"rows": [1]}],
                 "phasez": []}
            )
        with pytest.raises(ValueError, match="unknown phase field"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [0],
                 "phases": [{"rows": [1], "readz": 2}]}
            )
        with pytest.raises(ValueError, match="unknown row field"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [0],
                 "phases": [{"rows": [{"ofset": 1}]}]}
            )

    def test_row_needs_exactly_one_of_offset_and_row(self):
        with pytest.raises(ValueError, match="exactly one"):
            RowSpec(offset=1, row=5)
        with pytest.raises(ValueError, match="exactly one"):
            RowSpec()

    def test_structural_validation(self):
        with pytest.raises(ValueError, match="no phases"):
            PlaybookSpec.from_dict({"name": "x", "victims": [0], "phases": []})
        with pytest.raises(ValueError, match="names no victims"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [], "phases": [{"rows": [1]}]}
            )
        with pytest.raises(ValueError, match="unknown edge policy"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [0], "phases": [{"rows": [1]}],
                 "edge_policy": "wrap"}
            )
        with pytest.raises(ValueError, match="non-empty value list"):
            PlaybookSpec.from_dict(
                {"name": "x", "victims": [0], "phases": [{"rows": [1]}],
                 "sweep": {"min_fill": []}}
            )


class TestCompilePlaybook:
    def test_same_dict_compiles_to_bit_identical_streams(self):
        payload = pb.scenario("many-sided").to_dict()
        streams = [
            list(
                compile_playbook(
                    PlaybookSpec.from_dict(json.loads(json.dumps(payload))),
                    base_row=64,
                    n_rows=128,
                ).activations(20_000, 14)
            )
            for _ in range(2)
        ]
        assert streams[0] == streams[1]

    def test_library_double_sided_matches_the_legacy_factory(self):
        pattern = library("double-sided", 64)
        assert list(pattern.activations(2000, 21)) == list(
            _legacy_round_robin([63, 65])(2000, 21)
        )

    def test_base_row_is_required_somewhere(self):
        with pytest.raises(ValueError, match="pins no base_row"):
            compile_playbook(pb.scenario("double-sided"))

    def test_spec_base_row_wins_over_the_default(self):
        pattern = compile_playbook(
            pb.scenario("edge-double"), base_row=64, n_rows=128
        )
        assert pattern.intended_victims == (0,)
        assert pattern.aggressors == (1,)

    def test_phase_emptied_by_policy_is_a_compile_error(self):
        spec = PlaybookSpec.from_dict(
            {"name": "x", "victims": [0], "phases": [{"rows": [-1]}]}
        )
        with pytest.raises(ValueError, match="empty after the 'clamp'"):
            compile_playbook(spec, base_row=0, n_rows=128)

    def test_genome_bridge_is_bit_identical(self):
        genome = PatternGenome(
            aggressors=((1, 4), (-1, 2)), flush_rows=(30, 14, 25), flush_burst=4
        )
        assert list(genome_playbook(genome).activations(5003, 15)) == list(
            _legacy_genome(genome, 64)(5003, 15)
        )


class TestSweepAxes:
    def test_axes_expand_to_the_cartesian_product(self):
        spec = PlaybookSpec.from_dict(
            {
                "name": "x",
                "victims": [0],
                "min_fill": 2,
                "phases": [
                    {"rows": [-1, 1]},
                    {"rows": [10, 14], "reads": 6},
                ],
                "sweep": {"phases.1.reads": [2, 6], "min_fill": [1, 2]},
            }
        )
        variants = expand_spec(spec)
        assert [v.name for v in variants] == [
            "x[min_fill=1,phases.1.reads=2]",
            "x[min_fill=1,phases.1.reads=6]",
            "x[min_fill=2,phases.1.reads=2]",
            "x[min_fill=2,phases.1.reads=6]",
        ]
        assert {(v.min_fill, v.phases[1].reads) for v in variants} == {
            (1, 2), (1, 6), (2, 2), (2, 6)
        }
        assert all(not v.sweep for v in variants)

    def test_bad_sweep_path_fails_at_expansion(self):
        spec = PlaybookSpec.from_dict(
            {"name": "x", "victims": [0], "phases": [{"rows": [1]}],
             "sweep": {"phases.7.reads": [1]}}
        )
        with pytest.raises(ValueError, match="no list index"):
            expand_spec(spec)


class TestLibrary:
    def test_at_least_eight_scenarios(self):
        assert len(pb.SCENARIOS) >= 8

    def test_lint_compiles_every_scenario(self):
        lines = pb.lint_scenarios()
        assert len(lines) == len(pb.SCENARIOS)
        assert all(line.endswith("OK") for line in lines)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            pb.register_scenario(pb.scenario("double-sided").to_dict())

    def test_unknown_scenario_lists_the_library(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            pb.scenario("rowpress")


class TestPlan:
    def test_default_grid_spans_all_schemes(self):
        from repro.core import registry

        cells = pb.plan_playbook(config=TINY)
        variants = sum(
            len(expand_spec(spec)) for spec in pb.SCENARIOS.values()
        )
        assert len(cells) == variants * len(pb.DEFAULT_MITIGATIONS) * len(
            registry.names()
        )
        assert len({cell.key for cell in cells}) == len(cells)
        assert [cell.index for cell in cells] == list(range(len(cells)))

    def test_unknown_names_raise_eagerly(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            pb.plan_playbook(scenarios=["rowpress"], config=TINY)
        with pytest.raises(ValueError, match="unknown mitigation"):
            pb.plan_playbook(mitigations=["warlock"], config=TINY)
        with pytest.raises(KeyError):
            pb.plan_playbook(schemes=["no-such-scheme"], config=TINY)

    def test_extra_playbooks_join_the_grid_but_cannot_shadow(self):
        extra = {"name": "custom", "victims": [0], "phases": [{"rows": [-1, 1]}]}
        cells = pb.plan_playbook(
            scenarios=["custom"],
            mitigations=["none"],
            schemes=["secded"],
            config=TINY,
            extra_playbooks=[extra],
        )
        assert [cell.scenario for cell in cells] == ["custom"]
        shadow = dict(extra, name="double-sided")
        with pytest.raises(ValueError, match="shadows a library scenario"):
            pb.plan_playbook(config=TINY, extra_playbooks=[shadow])


class TestRun:
    def test_repeat_runs_are_identical(self):
        cells = tiny_cells()
        assert as_json(pb.run_playbook(cells, TINY)) == as_json(
            pb.run_playbook(cells, TINY)
        )

    def test_worker_count_never_changes_results(self):
        cells = tiny_cells()
        assert as_json(pb.run_playbook(cells, TINY)) == as_json(
            pb.run_playbook(cells, TINY, workers=2)
        )

    def test_kill_and_resume_from_the_store(self, tmp_path):
        """A partially-populated store (the killed run's residue) is
        resumed: stored points load, the rest compute, results match a
        fresh run."""
        cells = tiny_cells()
        reference = pb.run_playbook(cells, TINY)
        pb.run_playbook(cells[:5], TINY, cache_dir=str(tmp_path))
        snaps = []
        resumed = pb.run_playbook(
            cells, TINY, cache_dir=str(tmp_path), progress=snaps.append
        )
        assert as_json(resumed) == as_json(reference)
        assert snaps[-1].items_from_store == 5
        summary = summarize_index(str(tmp_path))
        assert summary["playbook"]["completed"] == len(cells)

    def test_spec_change_invalidates_the_fingerprint(self, tmp_path):
        extra = {"name": "custom", "victims": [0], "phases": [{"rows": [-1, 1]}]}
        cells = pb.plan_playbook(
            scenarios=["custom"], mitigations=["none"], schemes=["secded"],
            config=TINY, extra_playbooks=[extra],
        )
        pb.run_playbook(
            cells, TINY, cache_dir=str(tmp_path), extra_playbooks=[extra]
        )
        changed = {"name": "custom", "victims": [0], "phases": [{"rows": [-2, 2]}]}
        snaps = []
        pb.run_playbook(
            cells, TINY, cache_dir=str(tmp_path), extra_playbooks=[changed],
            progress=snaps.append,
        )
        assert snaps[-1].items_from_store == 0

    def test_data_inversion_changes_the_consumed_fill(self):
        base = {"name": "custom", "victims": [0], "phases": [{"rows": [-1, 1]}]}
        inverted = dict(base, name="custom-inv", data_inversion=True)
        outcomes = {}
        for payload in (base, inverted):
            cells = pb.plan_playbook(
                scenarios=[payload["name"]], mitigations=["none"],
                schemes=["secded"], config=TINY, extra_playbooks=[payload],
            )
            outcomes[payload["name"]] = next(
                iter(
                    pb.run_playbook(
                        cells, TINY, extra_playbooks=[payload]
                    ).values()
                )
            )
        assert outcomes["custom"].intended_flips == outcomes[
            "custom-inv"
        ].intended_flips  # attack side is fill-independent
        assert outcomes["custom"].lines_read > 0
        assert outcomes["custom-inv"].lines_read > 0

    def test_outcome_round_trip(self):
        outcome = next(iter(pb.run_playbook(tiny_cells()[:1], TINY).values()))
        assert pb.PlaybookOutcome.from_json(outcome.to_json()) == outcome


class TestScience:
    def test_many_sided_breaks_trr_but_not_graphene(self):
        """The tentpole science pin, in the default campaign regime."""
        cells = pb.plan_playbook(
            scenarios=["many-sided"],
            mitigations=["trr", "graphene"],
            schemes=["safeguard-secded"],
        )
        outcomes = pb.run_playbook(cells)
        by_mitigation = {
            key[1]: outcome for key, outcome in outcomes.items()
        }
        assert by_mitigation["trr"].broke_through
        assert not by_mitigation["graphene"].broke_through

    def test_safeguard_never_silently_corrupts(self):
        outcomes = pb.run_playbook(tiny_cells(), TINY)
        for key, outcome in outcomes.items():
            if key[2] == "safeguard-secded":
                assert outcome.silent_corruptions == 0


class TestCLI:
    def test_playbook_list_and_lint(self, capsys):
        from repro.__main__ import main

        assert main(["playbook", "list"]) == 0
        out = capsys.readouterr().out
        assert "many-sided" in out and "fuzzed-trr" in out
        assert main(["playbook", "lint"]) == 0
        assert "scenarios OK" in capsys.readouterr().out

    def test_playbook_show(self, capsys):
        from repro.__main__ import main

        assert main(["playbook", "show", "edge-double"]) == 0
        out = capsys.readouterr().out
        assert '"base_row": 0' in out and "first activations" in out
        assert main(["playbook", "show", "rowpress"]) == 2

    def test_playbook_run_restricted_grid(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main(
            [
                "playbook", "run",
                "--scenario", "double-sided",
                "--mitigation", "none",
                "--scheme", "secded",
                "--budget", "6000",
                "--cache-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "double-sided" in out and "Breakthroughs:" in out

    def test_figure_1_runners_take_the_campaign_options(self):
        from repro.experiments.runner import EXPERIMENTS

        for name in ("fig1b", "fig1c"):
            options = inspect.signature(EXPERIMENTS[name]).parameters
            assert {"workers", "cache_dir", "store_url"} <= set(options), name

    def test_playbook_run_with_file(self, capsys, tmp_path):
        from repro.__main__ import main

        payload = {"name": "custom", "victims": [0], "phases": [{"rows": [-1, 1]}]}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        code = main(
            [
                "playbook", "run",
                "--scenario", "custom",
                "--mitigation", "none",
                "--scheme", "secded",
                "--budget", "6000",
                "--file", str(path),
            ]
        )
        assert code == 0
        assert "custom" in capsys.readouterr().out
