"""Every experiment runs, reports and keeps its paper claims at the smoke scale.

Each artifact runs once through the runner at the sizes its module's
``SCALES["smoke"]`` declares; the tests below pin its values, check its
report, and check that none of its ``CLAIMS`` fails.
"""

import functools
import importlib
import pkgutil

import pytest

import repro.experiments
from repro.experiments import (
    SCALE_NAMES,
    failed_claims,
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
from repro.experiments.runner import CLAIMS, EXPERIMENTS, run_experiment

#: One name per artifact: fig1a and fig11 alias table1 and fig7.
ARTIFACTS = [name for name in EXPERIMENTS if name not in ("fig1a", "fig11")]


@functools.lru_cache(maxsize=None)
def smoke(name):
    """The experiment's result at the smoke scale, computed once."""
    return run_experiment(name, scale="smoke")


class TestStaticTables:
    def test_table1(self, capsys):
        table1_thresholds.report(table1_thresholds.run())
        out = capsys.readouterr().out
        assert "139,000" in out and "4,800" in out

    def test_table2_table3(self, capsys):
        table2_table3_config.report_table2()
        table2_table3_config.report_table3()
        out = capsys.readouterr().out
        assert "DDR4-3200" in out and "66.1" in out

    def test_table5(self, capsys):
        table5_storage.report(table5_storage.run())
        out = capsys.readouterr().out
        assert "14GB (2GB loss)" in out


@pytest.mark.slow
class TestFig1b:
    def test_matrix_shape_and_breakthroughs(self):
        cells = smoke("fig1b")
        assert len(cells) == 18  # 6 mitigations x 3 attacks
        by = {(c.mitigation, c.attack): c for c in cells}
        # Victim flips per (double-sided, many-sided, half-double).
        assert {
            mitigation: tuple(
                by[(mitigation, attack)].intended_flips
                for attack in ("double-sided", "many-sided(trrespass)", "half-double")
            )
            for mitigation in ("none", "para", "para-stale", "trr", "graphene", "blockhammer")
        } == {
            "none": (24, 24, 0),
            "para": (0, 0, 24),
            "para-stale": (282, 174, 0),
            "trr": (0, 24, 24),
            "graphene": (0, 0, 10),
            "blockhammer": (0, 0, 0),
        }
        assert by[("none", "double-sided")].broke_through
        assert not by[("para", "double-sided")].broke_through
        assert by[("para-stale", "double-sided")].broke_through
        assert by[("trr", "many-sided(trrespass)")].broke_through
        assert not by[("graphene", "many-sided(trrespass)")].broke_through
        assert by[("graphene", "half-double")].broke_through
        assert not by[("none", "half-double")].broke_through
        # Throttling: nothing breaks through at the correct design point.
        for attack in ("double-sided", "many-sided(trrespass)", "half-double"):
            assert not by[("blockhammer", attack)].broke_through

    def test_report_runs(self, capsys):
        fig1b_attacks.report(smoke("fig1b"))
        assert "BREAKTHROUGH" in capsys.readouterr().out


class TestFig1c:
    def test_safeguard_never_silent(self, capsys):
        outcomes = smoke("fig1c")
        by = {o.organization: o for o in outcomes}
        assert {
            o.organization: (o.lines_read, o.corrected, o.detected_ue, o.silent_corruptions)
            for o in outcomes
        } == {
            "Conventional SECDED": (96, 14, 16, 1),
            "SafeGuard (SECDED)": (96, 4, 26, 0),
            "Conventional Chipkill": (96, 10, 20, 1),
            "SafeGuard (Chipkill)": (96, 4, 26, 0),
        }
        assert not by["SafeGuard (SECDED)"].security_risk
        assert not by["SafeGuard (Chipkill)"].security_risk
        assert by["SafeGuard (SECDED)"].detected_ue > 0
        fig1c_detection.report(outcomes)
        assert "DUE" in capsys.readouterr().out


class TestTable4:
    def test_matrix_matches_paper(self):
        scores = smoke("table4")
        by = {(s.mode, s.scheme): s for s in scores}
        # Single bit: both correct.
        assert by[("bit", "SECDED")].correct_mark == "yes"
        assert by[("bit", "SafeGuard")].correct_mark == "yes"
        # Column: SECDED corrects; SafeGuard-with-parity mostly (ECC pin
        # cases are DUE); SafeGuard-without-parity never.
        assert by[("column", "SECDED")].correct_mark == "yes"
        assert by[("column", "SafeGuard")].correct_mark in ("yes", "partial")
        assert by[("column", "SafeGuard (no parity)")].correct_mark == "no"
        # SafeGuard never silent anywhere.
        for (mode, scheme), s in by.items():
            if scheme.startswith("SafeGuard"):
                assert s.silent == 0, (mode, scheme)
        # SECDED's exposure: some chip-wide mode corrupts silently.
        assert any(
            by[(m, "SECDED")].silent > 0
            for m in ("word", "row", "bank", "multibank", "multirank")
        )

    def test_report_runs(self, capsys):
        table4_resiliency.report(table4_resiliency.run(trials=10, seed=3))
        assert "SafeGuard detect" in capsys.readouterr().out


class TestReliabilityFigures:
    def test_fig6_small(self, capsys):
        results = smoke("fig6")
        assert len(results) == 3
        fig6_reliability_secded.report(results)
        assert "SafeGuard+ColumnParity" in capsys.readouterr().out

    def test_fig10_small(self, capsys):
        results = smoke("fig10")
        assert set(results) == {1.0, 10.0}
        fig10_reliability_chipkill.report(results)
        assert "Chipkill" in capsys.readouterr().out


class TestPerfFigures:
    def test_fig7_runs(self, capsys):
        figure = smoke("fig7")
        perf_figures.report_per_workload(figure, "Figure 7 (fast)")
        out = capsys.readouterr().out
        assert "GMEAN" in out

    def test_fig12_ordering(self):
        figure = smoke("fig12")
        slow = figure.gmean_slowdowns()
        names = figure.organizations
        assert slow[names[0]] < slow[names[1]]  # safeguard < sgx

    def test_fig13_monotone_in_latency(self, capsys):
        sweep = smoke("fig13")
        sg8 = sweep[8].gmean_slowdowns()[sweep[8].organizations[0]]
        sg80 = sweep[80].gmean_slowdowns()[sweep[80].organizations[0]]
        assert sg80 > sg8
        perf_figures.report_fig13(sweep)
        assert "MAC latency" in capsys.readouterr().out


class TestAnalysisSections:
    def test_sec4b(self, capsys):
        analysis, check = smoke("sec4b")
        assert 1.0 < check.ratio < 1.6
        sec4b_birthday.report((analysis, check))
        assert "birthday" in capsys.readouterr().out.lower()

    def test_sec4c_progression(self, capsys):
        points = smoke("sec4c")
        assert points[0].mac_checks > points[-1].mac_checks
        assert points[-1].mac_checks == 1
        sec4c_column_recovery.report(points)
        assert "MAC check" in capsys.readouterr().out

    def test_sec7_security(self, capsys):
        report = smoke("sec7")
        assert report.replay_same_address
        assert not report.eccploit_safeguard_status.value == "clean"
        sec7_security.report(report)
        out = capsys.readouterr().out
        assert "RAMBleed" in out and "replay" in out.lower()

    def test_sec7e(self, capsys):
        rows, empirical = smoke("sec7e")
        assert rows[0][1].expected_years_to_escape > 1000
        assert 0.2 * 2 ** -8 < empirical[0].measured_rate < 5 * 2 ** -8
        sec7e_mac_escape.report((rows, empirical))
        assert "escape" in capsys.readouterr().out.lower()


class TestClaims:
    @pytest.mark.parametrize(
        "name",
        [pytest.param(n, marks=pytest.mark.slow) if n == "fig1b" else n for n in ARTIFACTS],
    )
    def test_no_claim_fails_at_smoke(self, name):
        assert failed_claims(CLAIMS[EXPERIMENTS[name]], smoke(name)) == []

    def test_every_runner_has_claims_and_every_module_three_scales(self):
        assert set(CLAIMS) == set(EXPERIMENTS.values())
        registered = {id(claims) for claims in CLAIMS.values()}
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            if info.name in ("reporting", "runner"):
                continue
            module = importlib.import_module(f"repro.experiments.{info.name}")
            assert tuple(module.SCALES) == SCALE_NAMES, info.name
            # A module hosting several artifacts keys its claims by artifact.
            claims = module.CLAIMS
            per_artifact = claims and all(isinstance(c, dict) for c in claims.values())
            for artifact_claims in claims.values() if per_artifact else [claims]:
                assert id(artifact_claims) in registered, f"no runner runs {info.name}"
