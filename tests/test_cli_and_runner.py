"""Tests for the experiment dispatcher and CLI."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.core.registry import names as scheme_names
from repro.experiments import runner, table5_storage
from repro.experiments.runner import EXPERIMENTS, experiment_names, run_experiment


class TestRunner:
    def test_all_paper_artifacts_registered(self):
        names = set(experiment_names())
        for required in (
            "table1", "table2", "table3", "table4", "table5",
            "fig1a", "fig1b", "fig1c", "fig6", "fig7", "fig10",
            "fig11", "fig12", "fig13", "sec4b", "sec4c", "sec7", "sec7e",
        ):
            assert required in names

    def test_fig11_aliases_fig7(self):
        assert EXPERIMENTS["fig11"] is EXPERIMENTS["fig7"]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cheap_experiment_runs(self, capsys):
        run_experiment("table5")
        assert "SafeGuard" in capsys.readouterr().out


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table4" in out

    def test_help(self, capsys):
        assert main([]) == 0
        assert "Experiments:" in capsys.readouterr().out

    def test_run_one(self, capsys):
        assert main(["table1"]) == 0
        assert "139,000" in capsys.readouterr().out

    def test_unknown_returns_error(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sec7_runs(self, capsys):
        assert main(["sec7"]) == 0
        out = capsys.readouterr().out
        assert "RAMBleed" in out

    def test_schemes_lists_registry_with_flags(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in scheme_names():
            assert name in out
        assert "mac,column-parity" in out
        assert "chipkill" in out

    @pytest.mark.slow
    def test_scheme_flag_restricts_experiment(self, capsys):
        assert main(["fig1c", "--scheme", "safeguard-secded"]) == 0
        out = capsys.readouterr().out
        assert "SafeGuard (SECDED)" in out
        assert "Conventional SECDED" not in out

    def test_scheme_flag_unknown_scheme(self, capsys):
        assert main(["fig1c", "--scheme", "no-such"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_scheme_flag_rejected_by_scheme_unaware_experiment(self, capsys):
        assert main(["table1", "--scheme", "secded"]) == 2
        assert "does not take --scheme" in capsys.readouterr().err

    def test_reliability_figures_reject_the_other_organization(self, capsys):
        """Regression: ``fig6 --scheme chipkill`` printed a Chipkill row
        simulated on Figure 6's x8 SECDED module."""
        assert main(["fig6", "--scheme", "chipkill", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert "secded, safeguard-secded-noparity, safeguard-secded" in err
        assert main(["fig10", "--scheme", "secded", "--scale", "smoke"]) == 2
        assert "chipkill, safeguard-chipkill" in capsys.readouterr().err


class TestGlobalOptions:
    """Global options reach the commands that declare them and are
    rejected (exit 2) everywhere else, never dropped silently."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Stub every long-running command body; records its arguments."""
        import repro.__main__ as cli
        from repro.campaign import server
        from repro.rowhammer import playbook

        calls = []

        def record(name):
            def stub(*args, **kwargs):
                calls.append((name, args, kwargs))
                return {} if name == "run_playbook" else None

            return stub

        monkeypatch.setattr(server, "run_server", record("run_server"))
        monkeypatch.setattr(cli, "run_all", record("run_all"))
        monkeypatch.setattr(playbook, "run_playbook", record("run_playbook"))
        monkeypatch.setattr(playbook, "report_playbook", record("report_playbook"))
        return calls

    def test_serve_receives_workers(self, calls, tmp_path):
        assert main(["serve", "--store-dir", str(tmp_path), "--workers", "4"]) == 0
        (name, args, kwargs), = calls
        assert name == "run_server" and args == (str(tmp_path),)
        assert kwargs["workers"] == 4

    def test_submit_rejects_workers(self, calls, monkeypatch, capsys):
        import repro.campaign

        monkeypatch.setattr(repro.campaign, "CampaignClient", None)
        assert main(["submit", "127.0.0.1:7797", "perf", "--workers", "4"]) == 2
        assert "command 'submit' does not take --workers" in capsys.readouterr().err

    def test_all_rejects_options_it_does_not_take(self, calls, tmp_path, capsys):
        argv = ["all", "--engine", "fast", "--scheme", "secded", "--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "command 'all' does not take --scheme" in capsys.readouterr().err
        assert calls == []
        assert main(["all", "--workers", "2"]) == 0
        assert calls == [("run_all", (), {"workers": 2})]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--engine", "fast"], "does not take --engine"),
            (["--profile", "p.json"], "does not take --profile"),
            (
                ["--store-url", "127.0.0.1:7797", "--cache-dir", "cells"],
                "mutually exclusive",
            ),
        ],
    )
    def test_playbook_run_rejects_dropped_options(self, calls, capsys, flags, message):
        assert main(["playbook", "run", "--scenario", "edge-double"] + flags) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_playbook_run_receives_its_options(self, calls, tmp_path):
        argv = ["playbook", "run", "--scenario", "edge-double", "--workers", "2",
                "--scheme", "secded", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        (name, _, kwargs), _ = calls
        assert name == "run_playbook"
        assert kwargs["workers"] == 2 and kwargs["cache_dir"] == str(tmp_path)

    def test_experiment_without_workers_rejects_it(self, capsys):
        assert main(["table1", "--workers", "2"]) == 2
        assert "experiment 'table1' does not take --workers" in capsys.readouterr().err

    def test_accepted_options_come_from_the_runner_signature(self, monkeypatch):
        seen = {}

        def runner(workers=None, engine=None):
            seen.update(workers=workers, engine=engine)

        monkeypatch.setitem(EXPERIMENTS, "probe", runner)
        run_experiment("probe", workers=3, engine="fast")
        assert seen == {"workers": 3, "engine": "fast"}
        with pytest.raises(ValueError, match="does not take --scheme; it takes --workers, --engine"):
            run_experiment("probe", scheme="secded")


class TestAll:
    """``all`` runs each artifact once, records its wall time and claim
    verdicts, and exits 1 when a claim fails."""

    @pytest.fixture
    def cheap(self, monkeypatch):
        """Only the instant artifacts, one of them under an alias."""
        names = ("table1", "fig1a", "table5", "sec4c")
        monkeypatch.setattr(runner, "EXPERIMENTS", {name: EXPERIMENTS[name] for name in names})
        return names

    def test_record_covers_every_name(self, cheap, tmp_path, capsys):
        out = tmp_path / "record.json"
        assert main(["all", "--scale", "smoke", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["scale"] == "smoke" and record["failed"] == []
        assert record["workers"] == 1 and record["cpu_count"] >= 1 and record["commit"]
        assert list(record["artifacts"]) == list(cheap)
        for entry in record["artifacts"].values():
            assert entry["wall_s"] >= 0
            assert entry["claims"] and all(entry["claims"].values())
        assert record["artifacts"]["fig1a"]["same_run_as"] == "table1"
        assert record["artifacts"]["fig1a"]["claims"] == record["artifacts"]["table1"]["claims"]
        assert "Claims at the smoke scale" in capsys.readouterr().out

    def test_failing_claim_exits_1_and_names_the_paper_number(
        self, cheap, monkeypatch, tmp_path, capsys
    ):
        """A Table V whose MAC organizations lost no capacity contradicts
        the paper's 12.5 %."""
        rows = table5_storage.run()
        monkeypatch.setattr(
            table5_storage,
            "run",
            lambda: [dataclasses.replace(r, sgx_synergy_loss_gb=0.0) for r in rows],
        )
        out = tmp_path / "record.json"
        assert main(["all", "--scale", "smoke", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FAILED table5: SGX/Synergy-style MACs lose 12.5 %" in err
        verdicts = json.loads(out.read_text())["artifacts"]["table5"]["claims"]
        assert sorted(verdicts.values()) == [False, True]

    def test_scale_reaches_one_experiment(self, capsys):
        assert main(["sec7e", "--scale", "smoke"]) == 0
        assert "5000" in capsys.readouterr().out

    def test_bad_scale_and_out_elsewhere_are_rejected(self, capsys):
        assert main(["table1", "--scale", "huge"]) == 2
        assert "--scale must be one of smoke, quick, paper" in capsys.readouterr().err
        assert main(["table1", "--out", "r.json"]) == 2
        assert "does not take --out" in capsys.readouterr().err
