"""Tests for metadata-write merging and the Monte-Carlo knobs."""

from repro.cache.hierarchy import CacheHierarchy
from repro.faultsim.evaluators import SafeGuardSECDEDEvaluator, SECDEDEvaluator
from repro.faultsim.fit import FaultMode, Scope
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate
from repro.perf.organizations import sgx_style, synergy_style


class TestMetaWriteMerging:
    def test_neighbour_writebacks_merge_metadata_writes(self):
        h = CacheHierarchy(1, synergy_style(8))
        # Writebacks of 8 adjacent lines share one parity line.
        for i in range(8):
            h._dram_write(0x40000 // 64 + i, now_cpu=float(i))
        # 8 data writes + 1 merged parity write.
        assert h.dram_writes == 9

    def test_merge_window_expires(self):
        h = CacheHierarchy(1, sgx_style(8))
        h._dram_write(100, now_cpu=0.0)
        # Far beyond the merge window (memory cycles): a fresh MAC write.
        h._dram_write(101, now_cpu=1e7)
        assert h.dram_writes == 4


class TestMonteCarloKnobs:
    def test_grid_resolution(self):
        config = MonteCarloConfig(n_modules=5_000, seed=1, grid_months=12)
        result = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, config)
        assert len(result.grid_hours) == 7  # yearly points over 7 years

    def test_custom_mode_set(self):
        """Restricting to bit faults only: SafeGuard and SECDED both
        correct (virtually) everything."""
        bit_only = [FaultMode(Scope.BIT, 14.2, 18.6)]
        config = MonteCarloConfig(n_modules=30_000, seed=1, modes=bit_only)
        secded = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, config)
        safeguard = simulate(
            SafeGuardSECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, config
        )
        assert secded.final_fail_probability < 1e-3
        assert safeguard.final_fail_probability < 1e-3

    def test_failure_counts_consistent(self):
        config = MonteCarloConfig(n_modules=30_000, seed=2)
        result = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, config)
        assert result.n_due + result.n_sdc == result.n_failed
        assert sum(result.failures_by_scope.values()) == result.n_failed
