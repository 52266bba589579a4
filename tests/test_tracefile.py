"""Tests for trace recording/replay and multi-seed perf summaries."""

import re

import pytest

from repro.cpu.system import System
from repro.cpu.trace import MemOp, TraceGenerator
from repro.cpu.tracefile import (
    TraceFileSource,
    read_trace,
    record_workload,
    write_trace,
)
from repro.cpu.workloads import profile
from repro.perf.campaign import run_comparison_multiseed_parallel
from repro.perf.model import MultiSeedSummary, PerfConfig
from repro.perf.organizations import BASELINE_ECC, safeguard

OPS = [
    MemOp(10, False, 0x1000, False),
    MemOp(0, True, 0x2040, False),
    MemOp(255, False, 0xDEADBEEF00, True),
]


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.trace")
        assert write_trace(path, OPS) == 3
        assert list(read_trace(path)) == OPS

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.trace.gz")
        write_trace(path, OPS)
        assert list(read_trace(path)) == OPS

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1 R 40\n")
        with pytest.raises(ValueError):
            list(read_trace(str(path)))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("#repro-trace v1\n1 X 40\n")
        with pytest.raises(ValueError):
            list(read_trace(str(path)))

    @pytest.mark.parametrize(
        "op",
        ["0 R -40", "-7 W 1000", "3 R 40 X", "3 R 40 S S", "x R 40", "3 R zz"],
    )
    def test_malformed_fields_rejected(self, tmp_path, op):
        """Negative addresses and gaps, and any trailing token but ``S``,
        are rejected with the file position (a negative address used to
        reach the DRAM address map, whose bank-hash fold never ends on
        one)."""
        path = tmp_path / "bad.trace"
        path.write_text(f"#repro-trace v1\n1 R 40\n{op}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            list(read_trace(str(path)))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text("#repro-trace v1\n# comment\n\n5 R 40\n")
        assert list(read_trace(str(path))) == [MemOp(5, False, 0x40, False)]

    def test_record_workload(self, tmp_path):
        path = str(tmp_path / "gcc.trace")
        n = record_workload(path, profile("gcc"), core=0, seed=3, n_instructions=5_000)
        assert n > 0
        replayed = list(read_trace(path))
        direct = list(TraceGenerator(profile("gcc"), 0, 3).ops(5_000))
        assert replayed == direct


class TestReplayThroughSystem:
    def test_replay_matches_live_generation(self, tmp_path):
        prof = profile("gcc")
        n_instr = 10_000
        paths = []
        for core in range(2):
            path = str(tmp_path / f"core{core}.trace")
            record_workload(path, prof, core=core, seed=7, n_instructions=n_instr)
            paths.append(path)

        live = System(prof, BASELINE_ECC, n_cores=2, seed=7).run(n_instr)
        replay = System(
            prof,
            BASELINE_ECC,
            n_cores=2,
            seed=7,
            sources=[TraceFileSource(p) for p in paths],
        ).run(n_instr)
        # Same ops; the only difference is the (absent) steady-state
        # priming, so DRAM traffic may differ but cycle counts must be
        # within the same ballpark and deterministic.
        assert replay.total_cycles > 0
        again = System(
            prof,
            BASELINE_ECC,
            n_cores=2,
            seed=7,
            sources=[TraceFileSource(p) for p in paths],
        ).run(n_instr)
        assert replay.total_cycles == again.total_cycles
        assert live.instructions_per_core == replay.instructions_per_core

    def test_source_count_validated(self):
        with pytest.raises(ValueError):
            System(profile("gcc"), BASELINE_ECC, n_cores=2, sources=[None])


class TestMultiSeed:
    def test_summary_statistics(self):
        summary = MultiSeedSummary("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.stdev == pytest.approx(1.0)
        assert MultiSeedSummary("x", [5.0]).stdev == 0.0

    def test_multiseed_run(self):
        config = PerfConfig(
            n_cores=2, instructions_per_core=15_000, warmup_instructions=3_000
        )
        summaries = run_comparison_multiseed_parallel(
            [safeguard(8)], seeds=(0, 1), workloads=["omnetpp"], config=config,
            workers=1,
        )
        summary = summaries[safeguard(8).name]
        assert len(summary.per_seed_slowdown_percent) == 2
        assert -3.0 < summary.mean < 10.0
