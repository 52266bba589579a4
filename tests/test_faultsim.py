"""Tests for the FaultSim-style reliability simulator."""

import dataclasses
import random

import pytest

from repro.faultsim.evaluators import (
    ChipkillEvaluator,
    Outcome,
    SafeGuardChipkillEvaluator,
    SafeGuardSECDEDEvaluator,
    SECDEDEvaluator,
)
from repro.faultsim.faults import FaultInstance, Pattern, place_fault
from repro.faultsim.fit import FAULT_MODES, Scope, scale_fit, total_fit
from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate


def bit_fault(chip=0, rank=0, bank=0, row=0, col=0, bit=0, t=0.0):
    return FaultInstance(Scope.BIT, False, t, chip, rank, bank, row, col, bit)


def column_fault(chip=0, rank=0, bank=0, bit=0, t=0.0):
    return FaultInstance(Scope.COLUMN, False, t, chip, rank, bank, None, None, bit)


def row_fault(chip=0, rank=0, bank=0, row=0, t=0.0):
    return FaultInstance(Scope.ROW, False, t, chip, rank, bank, row, None, None)


class TestFit:
    def test_table3_total(self):
        assert total_fit() == pytest.approx(66.1)

    def test_scale(self):
        scaled = scale_fit(10.0)
        assert total_fit(scaled) == pytest.approx(661.0)

    def test_all_seven_modes_present(self):
        assert {m.scope for m in FAULT_MODES} == set(Scope)


class TestGeometry:
    def test_x8_capacity(self):
        assert X8_SECDED_16GB.data_bytes == 16 * (1 << 30)
        assert X8_SECDED_16GB.total_chips == 18
        assert X8_SECDED_16GB.is_ecc_chip(8)
        assert not X8_SECDED_16GB.is_ecc_chip(7)

    def test_x4_capacity(self):
        assert X4_CHIPKILL_16GB.data_bytes == 16 * (1 << 30)
        assert X4_CHIPKILL_16GB.total_chips == 36
        assert X4_CHIPKILL_16GB.ecc_chips_per_rank == 2

    def test_lines_per_rank(self):
        assert X8_SECDED_16GB.lines_per_rank == 16 * 65536 * 128


class TestRejectedSetups:
    """Bad geometries and configs fail up front, not deep in the loop."""

    def test_zero_ranks_rejected(self):
        # Once simulated 1,000 modules with zero failures.
        with pytest.raises(ValueError, match="ranks"):
            dataclasses.replace(X8_SECDED_16GB, ranks=0)

    def test_zero_banks_rejected(self):
        # Once failed mid-run with "empty range for randrange()".
        with pytest.raises(ValueError, match="banks"):
            dataclasses.replace(X8_SECDED_16GB, banks=0)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            dataclasses.replace(X8_SECDED_16GB, rows=-1)

    def test_more_data_chips_than_chips_rejected(self):
        with pytest.raises(ValueError, match="data_chips_per_rank"):
            dataclasses.replace(X8_SECDED_16GB, data_chips_per_rank=10)

    def test_dimension_of_two_to_the_32_rejected(self):
        # The replay decodes one 32-bit word per randrange draw.
        with pytest.raises(ValueError, match="cols"):
            dataclasses.replace(X8_SECDED_16GB, cols=1 << 32)
        assert dataclasses.replace(X8_SECDED_16GB, cols=(1 << 32) - 1).cols

    @pytest.mark.parametrize(
        "modes",
        [[], scale_fit(0.0)],
        ids=["no-modes", "all-zero-fit"],
    )
    def test_no_positive_fit_gives_the_zero_curve(self, modes):
        # Both once raised IndexError choosing a fault category.
        for engine in ("reference", "fast"):
            result = simulate(
                SECDEDEvaluator(X8_SECDED_16GB),
                X8_SECDED_16GB,
                MonteCarloConfig(n_modules=500, modes=modes, engine=engine),
            )
            assert result.n_failed == 0
            assert set(result.fail_probability) == {0.0}


class TestFaultPlacement:
    def test_every_scope_places(self):
        rng = random.Random(1)
        for mode in FAULT_MODES:
            fault = place_fault(mode.scope, False, 1.0, 2, X8_SECDED_16GB, rng)
            assert fault.scope is mode.scope
            assert fault.chip == 2

    def test_scope_wildcards(self):
        rng = random.Random(2)
        column = place_fault(Scope.COLUMN, True, 0.0, 0, X8_SECDED_16GB, rng)
        assert column.row is None and column.col is None and column.bit is not None
        multirank = place_fault(Scope.MULTIRANK, True, 0.0, 0, X8_SECDED_16GB, rng)
        assert multirank.rank is None

    def test_patterns(self):
        assert bit_fault().pattern == Pattern.SINGLE_BIT
        assert column_fault().pattern == Pattern.VERTICAL
        assert row_fault().pattern == Pattern.CHIP_WIDE


class TestOverlap:
    def test_same_address_overlaps(self):
        assert bit_fault(chip=0).overlaps(bit_fault(chip=5), line_granularity=False)

    def test_different_row_no_overlap(self):
        assert not bit_fault(row=1).overlaps(bit_fault(row=2), False)

    def test_wildcard_overlaps_specific(self):
        assert row_fault(bank=3, row=9).overlaps(bit_fault(bank=3, row=9, col=50), False)
        assert not row_fault(bank=3, row=9).overlaps(bit_fault(bank=4, row=9), False)

    def test_line_granularity_coarsens_columns(self):
        a = bit_fault(col=8)
        b = bit_fault(col=9, bit=1)
        assert not a.overlaps(b, line_granularity=False)
        assert a.overlaps(b, line_granularity=True)
        c = bit_fault(col=16)
        assert not a.overlaps(c, line_granularity=True)

    def test_multirank_spans_ranks(self):
        mr = FaultInstance(Scope.MULTIRANK, False, 0.0, 2, None, None, None, None, None)
        assert mr.overlaps(bit_fault(rank=0), False)
        assert mr.overlaps(bit_fault(rank=1), False)


class TestSECDEDEvaluator:
    @pytest.fixture
    def ev(self):
        return SECDEDEvaluator(X8_SECDED_16GB)

    def test_single_bit_corrected(self, ev):
        assert ev.classify([], bit_fault()) is Outcome.CORRECTED

    def test_column_corrected(self, ev):
        assert ev.classify([], column_fault()) is Outcome.CORRECTED

    def test_chipwide_is_sdc(self, ev):
        for scope in (Scope.WORD, Scope.ROW, Scope.BANK, Scope.MULTIBANK, Scope.MULTIRANK):
            rng = random.Random(0)
            fault = place_fault(scope, False, 0.0, 1, X8_SECDED_16GB, rng)
            assert ev.classify([], fault) is Outcome.SDC

    def test_two_overlapping_bits_due(self, ev):
        assert ev.classify([bit_fault(chip=0)], bit_fault(chip=3)) is Outcome.DUE

    def test_nonoverlapping_bits_fine(self, ev):
        assert ev.classify([bit_fault(row=1)], bit_fault(row=2)) is Outcome.CORRECTED

    def test_bit_in_faulty_column_bank_due(self, ev):
        assert ev.classify([column_fault(bank=2)], bit_fault(chip=4, bank=2)) is Outcome.DUE


class TestSafeGuardSECDEDEvaluator:
    def test_never_sdc(self):
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=True)
        rng = random.Random(1)
        for mode in FAULT_MODES:
            fault = place_fault(mode.scope, False, 0.0, rng.randrange(9), X8_SECDED_16GB, rng)
            assert ev.classify([], fault) is not Outcome.SDC

    def test_column_corrected_with_parity_on_data_chip(self):
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=True)
        assert ev.classify([], column_fault(chip=3)) is Outcome.CORRECTED

    def test_column_due_on_ecc_chip(self):
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=True)
        assert ev.classify([], column_fault(chip=8)) is Outcome.DUE

    def test_column_due_without_parity(self):
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=False)
        assert ev.classify([], column_fault(chip=3)) is Outcome.DUE

    def test_two_bits_same_line_due(self):
        """The Section IV-B birthday case."""
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        existing = bit_fault(col=8, bit=0)
        incoming = bit_fault(chip=5, col=9, bit=3)  # same line, other word
        assert ev.classify([existing], incoming) is Outcome.DUE

    def test_two_bits_different_lines_corrected(self):
        ev = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        assert ev.classify([bit_fault(col=0)], bit_fault(col=64)) is Outcome.CORRECTED


class TestChipkillEvaluators:
    def test_single_chip_modes_corrected(self):
        ev = ChipkillEvaluator(X4_CHIPKILL_16GB)
        rng = random.Random(2)
        for scope in (Scope.BIT, Scope.COLUMN, Scope.WORD, Scope.ROW, Scope.BANK,
                      Scope.MULTIBANK, Scope.MULTIRANK):
            fault = place_fault(scope, False, 0.0, 7, X4_CHIPKILL_16GB, rng)
            assert ev.classify([], fault) is Outcome.CORRECTED

    def test_two_chips_due(self):
        ev = ChipkillEvaluator(X4_CHIPKILL_16GB)
        existing = row_fault(chip=1, bank=0, row=5)
        incoming = bit_fault(chip=2, bank=0, row=5)
        assert ev.classify([existing], incoming) is Outcome.DUE

    def test_three_chips_sdc_for_chipkill_due_for_safeguard(self):
        geometry = X4_CHIPKILL_16GB
        existing = [row_fault(chip=1, row=5), row_fault(chip=2, row=5)]
        incoming = bit_fault(chip=3, row=5)
        assert ChipkillEvaluator(geometry).classify(existing, incoming) is Outcome.SDC
        assert (
            SafeGuardChipkillEvaluator(geometry).classify(existing, incoming)
            is Outcome.DUE
        )

    def test_same_chip_accumulation_still_corrected(self):
        ev = ChipkillEvaluator(X4_CHIPKILL_16GB)
        assert ev.classify([bit_fault(chip=4)], row_fault(chip=4)) is Outcome.CORRECTED


class TestMonteCarlo:
    def test_reproducible(self):
        cfg = MonteCarloConfig(n_modules=20_000, seed=7)
        a = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg)
        b = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg)
        assert a.fail_probability == b.fail_probability

    def test_curve_monotonic(self):
        cfg = MonteCarloConfig(n_modules=20_000, seed=7)
        result = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg)
        assert all(
            b >= a for a, b in zip(result.fail_probability, result.fail_probability[1:])
        )

    def test_safeguard_no_parity_worse_than_secded(self):
        """The Figure 6 ordering: ~1.25x from uncorrectable column faults."""
        cfg = MonteCarloConfig(n_modules=60_000, seed=3)
        secded = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg)
        noparity = simulate(
            SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=False),
            X8_SECDED_16GB,
            cfg,
        )
        parity = simulate(
            SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=True),
            X8_SECDED_16GB,
            cfg,
        )
        assert noparity.n_failed > secded.n_failed
        assert secded.n_failed <= parity.n_failed <= noparity.n_failed

    def test_safeguard_failures_all_detected(self):
        cfg = MonteCarloConfig(n_modules=40_000, seed=3)
        result = simulate(
            SafeGuardSECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg
        )
        assert result.n_sdc == 0
        assert result.n_due == result.n_failed

    def test_chipkill_pair_identical_failure_counts(self):
        """Figure 10: SafeGuard-Chipkill matches Chipkill."""
        cfg = MonteCarloConfig(n_modules=40_000, seed=5)
        ck = simulate(ChipkillEvaluator(X4_CHIPKILL_16GB), X4_CHIPKILL_16GB, cfg)
        sg = simulate(
            SafeGuardChipkillEvaluator(X4_CHIPKILL_16GB), X4_CHIPKILL_16GB, cfg
        )
        assert sg.n_failed == pytest.approx(ck.n_failed, abs=max(5, ck.n_failed * 0.2))
        assert sg.n_sdc == 0

    def test_fit_multiplier_increases_failures(self):
        base = simulate(
            ChipkillEvaluator(X4_CHIPKILL_16GB),
            X4_CHIPKILL_16GB,
            MonteCarloConfig(n_modules=20_000, seed=9),
        )
        boosted = simulate(
            ChipkillEvaluator(X4_CHIPKILL_16GB),
            X4_CHIPKILL_16GB,
            MonteCarloConfig(n_modules=20_000, seed=9, fit_multiplier=10.0),
        )
        assert boosted.n_failed > base.n_failed

    def test_scrubbing_reduces_bit_collisions(self):
        """Scrubbing drops old transient faults, reducing double-bit DUEs."""
        no_scrub = simulate(
            SECDEDEvaluator(X8_SECDED_16GB),
            X8_SECDED_16GB,
            MonteCarloConfig(n_modules=30_000, seed=2, fit_multiplier=50.0),
        )
        scrubbed = simulate(
            SECDEDEvaluator(X8_SECDED_16GB),
            X8_SECDED_16GB,
            MonteCarloConfig(
                n_modules=30_000, seed=2, fit_multiplier=50.0,
                scrub_interval_hours=24.0,
            ),
        )
        assert scrubbed.n_failed <= no_scrub.n_failed

    def test_probability_at_years(self):
        cfg = MonteCarloConfig(n_modules=20_000, seed=7)
        result = simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, cfg)
        assert result.probability_at_years(0.01) <= result.probability_at_years(7.0)
        assert result.probability_at_years(7.0) == result.final_fail_probability


class TestProbabilityInterpolation:
    """Pin probability_at_years to linear interpolation on the grid."""

    def _result(self):
        from repro.faultsim.montecarlo import ReliabilityResult
        from repro.utils import units

        year = units.HOURS_PER_YEAR
        return ReliabilityResult(
            scheme="pinned",
            n_modules=100,
            years=4.0,
            grid_hours=[1.0 * year, 2.0 * year, 3.0 * year, 4.0 * year],
            fail_probability=[0.10, 0.20, 0.40, 0.40],
            n_failed=40,
            n_due=40,
            n_sdc=0,
            failures_by_scope={},
        )

    def test_exact_grid_points(self):
        result = self._result()
        for years, expected in ((1.0, 0.10), (2.0, 0.20), (3.0, 0.40), (4.0, 0.40)):
            assert result.probability_at_years(years) == pytest.approx(expected)

    def test_midpoints_interpolate(self):
        result = self._result()
        assert result.probability_at_years(1.5) == pytest.approx(0.15)
        assert result.probability_at_years(2.5) == pytest.approx(0.30)
        assert result.probability_at_years(2.25) == pytest.approx(0.25)

    def test_origin_segment(self):
        """Before the first grid point, interpolate from the implicit (0, 0)."""
        result = self._result()
        assert result.probability_at_years(0.5) == pytest.approx(0.05)
        assert result.probability_at_years(0.0) == 0.0
        assert result.probability_at_years(-1.0) == 0.0

    def test_clamps_past_grid_end(self):
        result = self._result()
        assert result.probability_at_years(10.0) == pytest.approx(0.40)

    def test_empty_grid(self):
        from dataclasses import replace

        result = replace(self._result(), grid_hours=[], fail_probability=[])
        assert result.probability_at_years(3.0) == 0.0

    def test_monotone_between_samples(self):
        """Interpolation never leaves the bracketing grid values."""
        result = self._result()
        probe = [0.1 * k for k in range(1, 46)]
        values = [result.probability_at_years(y) for y in probe]
        assert values == sorted(values)
        assert all(0.0 <= v <= 0.40 for v in values)


class TestScrubRebuildEquivalence:
    """The lazy scrub-list rebuild matches a filter-on-every-arrival oracle.

    simulate_range only re-filters the active list once the oldest
    transient fault has expired; this oracle re-filters unconditionally,
    the behaviour the optimisation replaced.
    """

    def _naive_simulate_range(self, evaluator, geometry, config, fault_counts):
        import bisect

        import numpy as np

        from repro.faultsim.montecarlo import FailureRecord, _mode_categories
        from repro.utils import units
        from repro.utils.rng import derive_seed

        total_hours = config.years * units.HOURS_PER_YEAR
        categories, cumulative = _mode_categories(config)
        records = []
        for module_index in np.nonzero(fault_counts)[0]:
            rng = random.Random(derive_seed(config.seed, 0x51A7, int(module_index)))
            times = sorted(
                rng.uniform(0.0, total_hours)
                for _ in range(int(fault_counts[module_index]))
            )
            active = []
            scrub = config.scrub_interval_hours
            for time_hours in times:
                mode, transient = categories[
                    bisect.bisect_left(cumulative, rng.random())
                ]
                chip = rng.randrange(geometry.chips_per_rank)
                fault = place_fault(
                    mode.scope, transient, time_hours, chip, geometry, rng
                )
                if scrub is not None:
                    active = [
                        f
                        for f in active
                        if not f.transient or time_hours - f.time_hours < scrub
                    ]
                outcome = evaluator.classify(active, fault)
                if outcome.is_failure:
                    records.append(
                        FailureRecord(time_hours, outcome, fault.scope.value)
                    )
                    break
                active.append(fault)
        return records

    @pytest.mark.parametrize("scrub", [None, 12.0, 500.0, 100_000.0])
    def test_matches_naive_filter(self, scrub):
        from repro.faultsim.montecarlo import (
            FailureColumns,
            draw_fault_counts,
            simulate_range,
        )

        config = MonteCarloConfig(
            n_modules=4_000,
            seed=13,
            fit_multiplier=40.0,  # many multi-fault modules so scrub matters
            scrub_interval_hours=scrub,
        )
        evaluator = SECDEDEvaluator(X8_SECDED_16GB)
        counts = draw_fault_counts(config, X8_SECDED_16GB)
        assert int((counts >= 2).sum()) > 100
        optimised = simulate_range(evaluator, X8_SECDED_16GB, config, counts)
        naive = FailureColumns.from_records(
            self._naive_simulate_range(evaluator, X8_SECDED_16GB, config, counts)
        )
        for column in ("time_hours", "outcome", "scope"):
            assert (
                getattr(optimised, column).tolist() == getattr(naive, column).tolist()
            )
