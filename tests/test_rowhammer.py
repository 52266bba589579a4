"""Tests for the Row-Hammer substrate: model, mitigations, attacks."""

import pytest

from repro.rowhammer.attacks import PlaybookSpec, compile_playbook
from repro.rowhammer.mitigations import (
    GrapheneMitigation,
    NoMitigation,
    PARA,
    TRRMitigation,
)
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner
from repro.rowhammer.thresholds import RH_THRESHOLDS, reduction_factor, threshold_for
from tests.test_playbook import STRIDE_7_TRRESPASS, library

#: Small threshold / budget so each scenario runs in well under a second.
FAST_THRESHOLD = 600
FAST_BUDGET = 180_000


def fast_model(seed=1, **kwargs):
    return DisturbanceModel(
        RowHammerConfig(rh_threshold=FAST_THRESHOLD, seed=seed, **kwargs)
    )


def run(attack, mitigation, seed=1, budget=FAST_BUDGET, **model_kwargs):
    model = fast_model(seed=seed, **model_kwargs)
    return AttackRunner(model, mitigation).run(attack, windows=1, budget=budget)


#: TRRespass with its flush rows (74-118) inside the 128-row bank, the
#: playbook library's many-sided.
IN_BANK_TRRESPASS = library("many-sided", 64)


class TestThresholds:
    def test_table1_entries(self):
        assert threshold_for("DDR3 (old)") == 139_000
        assert threshold_for("LPDDR4 (new)") == 4_800
        assert len(RH_THRESHOLDS) == 6

    def test_thresholds_trend_downward(self):
        assert RH_THRESHOLDS[0].threshold > RH_THRESHOLDS[-1].threshold

    def test_reduction_factor_about_30x(self):
        assert 25 < reduction_factor() < 35

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            threshold_for("DDR9")


class TestDisturbanceModel:
    def test_below_threshold_no_flips(self):
        model = fast_model()
        for _ in range(FAST_THRESHOLD - 1):
            assert model.activate(60) == []
        assert model.total_flips() == 0

    def test_crossing_threshold_flips_neighbours(self):
        model = fast_model()
        flips = []
        for _ in range(FAST_THRESHOLD + 50):
            flips.extend(model.activate(60))
        victims = {v for v, _ in flips}
        assert victims and victims <= {58, 59, 61, 62}
        assert model.total_flips() > 0

    def test_victim_access_resets_disturbance(self):
        model = fast_model()
        for _ in range(FAST_THRESHOLD // 2):
            model.activate(60)
        assert model.disturbance(61) > 0
        model.activate(61)  # accessing the victim restores its cells
        assert model.disturbance(61) == 0

    def test_periodic_refresh_clears_everything(self):
        model = fast_model()
        for _ in range(FAST_THRESHOLD + 50):
            model.activate(60)
        model.periodic_refresh()
        assert model.total_flips() == 0
        assert model.disturbance(61) == 0

    def test_mitigation_refresh_disturbs_neighbours(self):
        """The Half-Double lever: a refresh is an activation."""
        model = fast_model()
        before = model.disturbance(62)
        model.mitigation_refresh(61)
        assert model.disturbance(62) > before
        assert model.disturbance(61) == 0

    def test_weak_cells_deterministic_per_row(self):
        a = fast_model(seed=5)
        b = fast_model(seed=5)
        assert a._weak_cells_of(10) == b._weak_cells_of(10)
        assert a._weak_cells_of(10) != a._weak_cells_of(11)

    def test_distance2_direct_coupling_weak(self):
        model = fast_model()
        for _ in range(FAST_THRESHOLD + 50):
            model.activate(60)
        assert model.disturbance(62) < model.disturbance(61) / 100


class TestMitigationUnits:
    def test_para_probability_validation(self):
        with pytest.raises(ValueError):
            PARA(1.5)

    def test_para_sized_for(self):
        p = PARA.sized_for(1000, confidence=10)
        assert p.probability == pytest.approx(0.01)

    def test_trr_fifo_eviction(self):
        trr = TRRMitigation(2)
        for row in (1, 2, 3):
            trr.on_activate(row)
        refreshes = trr.on_refresh_command()
        assert set(refreshes) == {1, 3, 2, 4}  # neighbours of rows 2 and 3

    def test_trr_clears_on_ref(self):
        trr = TRRMitigation(4)
        trr.on_activate(9)
        trr.on_refresh_command()
        assert trr.on_refresh_command() == []

    def test_graphene_tracks_heavy_hitter(self):
        g = GrapheneMitigation(design_threshold=100, window_activations=10_000)
        refreshed = []
        for _ in range(200):
            refreshed.extend(g.on_activate(50))
        assert set(refreshed) == {49, 51}

    def test_graphene_window_reset(self):
        g = GrapheneMitigation(design_threshold=100, window_activations=10_000)
        for _ in range(20):
            g.on_activate(50)
        g.on_window_end()
        assert g._counters == {}


class TestAttackOutcomes:
    """The Figure 1b matrix at fast scale."""

    def test_double_sided_breaks_unprotected(self):
        assert run(library("double-sided", 64), NoMitigation()).broke_through

    def test_single_sided_breaks_unprotected(self):
        assert run(library("one-location", 65), NoMitigation()).broke_through

    def test_para_stops_double_sided(self):
        assert not run(library("double-sided", 64), PARA.sized_for(FAST_THRESHOLD)).broke_through

    def test_stale_para_design_point_fails(self):
        """Sized for a 139K-threshold module, deployed on a low-threshold
        one (the Table I trend): flips get through."""
        assert run(library("double-sided", 64), PARA.sized_for(139_000)).broke_through

    def test_trr_stops_double_sided(self):
        assert not run(library("double-sided", 64), TRRMitigation(4)).broke_through

    def test_trrespass_breaks_trr(self):
        assert run(IN_BANK_TRRESPASS, TRRMitigation(4)).broke_through

    def test_graphene_stops_trrespass(self):
        result = run(
            IN_BANK_TRRESPASS, GrapheneMitigation(FAST_THRESHOLD, FAST_BUDGET)
        )
        assert not result.broke_through

    def test_activation_outside_the_bank_is_rejected(self):
        """Regression: TRRespass with flush rows at stride 7 (74-151)
        names rows 130, 137, 144 and 151 outside the 128-row bank; the
        runner used to spend budget and TRR tracker entries on them."""
        stride_7 = PlaybookSpec.from_dict(STRIDE_7_TRRESPASS)
        seen = []

        class Spy(NoMitigation):
            def on_activate(self, row):
                seen.append(row)
                return []

        model = fast_model()
        with pytest.raises(ValueError, match=r"row 130, outside the bank \(n_rows=128\)"):
            AttackRunner(model, Spy()).run(
                compile_playbook(stride_7, base_row=64), budget=FAST_BUDGET
            )
        # Rejected before the model or the mitigation saw it.
        assert seen and max(seen) < 128
        assert model.activations == len(seen)

    def test_half_double_needs_a_mitigation_to_exploit(self):
        assert not run(library("half-double", 64), NoMitigation()).broke_through

    def test_half_double_breaks_graphene(self):
        result = run(
            library("half-double", 64), GrapheneMitigation(FAST_THRESHOLD, FAST_BUDGET)
        )
        assert result.broke_through

    def test_half_double_breaks_para(self):
        assert run(library("half-double", 64), PARA.sized_for(FAST_THRESHOLD)).broke_through

    def test_result_bookkeeping(self):
        result = run(library("double-sided", 64), NoMitigation())
        assert result.attack == "double-sided"
        assert result.mitigation == "none"
        assert result.total_flips >= result.intended_flips > 0
        assert 64 in result.final_flip_bits
        assert result.activations == FAST_BUDGET
