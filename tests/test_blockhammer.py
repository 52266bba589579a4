"""Tests for the BlockHammer-style throttling mitigation."""

import pytest

from repro.rowhammer.blockhammer import (
    BlockHammerMitigation,
    CountingBloomFilter,
    TRC_NS,
)
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner
from tests.test_playbook import library

THRESHOLD = 600
BUDGET = 180_000


def run(name, design_threshold, device_threshold=THRESHOLD, budget=BUDGET):
    """Run the library scenario ``name`` at victim row 64."""
    model = DisturbanceModel(RowHammerConfig(rh_threshold=device_threshold, seed=1))
    mitigation = BlockHammerMitigation(design_threshold=design_threshold, seed=2)
    result = AttackRunner(model, mitigation).run(library(name, 64), budget=budget)
    return result, mitigation


class TestCountingBloomFilter:
    def test_estimate_never_underestimates(self):
        bloom = CountingBloomFilter(n_counters=64, n_hashes=3)
        for _ in range(10):
            bloom.insert(5)
        assert bloom.estimate(5) >= 10

    def test_clear(self):
        bloom = CountingBloomFilter()
        bloom.insert(7)
        bloom.clear()
        assert bloom.estimate(7) == 0

    def test_distinct_rows_mostly_independent(self):
        bloom = CountingBloomFilter(n_counters=4096, n_hashes=4)
        for _ in range(100):
            bloom.insert(1)
        assert bloom.estimate(999) < 100

    def test_validation(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(n_counters=0)


class TestBlockHammer:
    def test_stops_double_sided(self):
        result, _ = run("double-sided", THRESHOLD)
        assert not result.broke_through
        assert result.blocked_activations > 0

    def test_stops_trrespass(self):
        result, _ = run("many-sided", THRESHOLD)
        assert not result.broke_through

    def test_stops_half_double(self):
        """BlockHammer issues no victim refreshes, so Half-Double has
        nothing to exploit — the structural advantage of throttling."""
        result, _ = run("half-double", THRESHOLD, budget=400_000)
        assert not result.broke_through
        assert result.mitigation_refreshes == 0

    def test_threshold_drift_still_breaks_it(self):
        """Sized for 139K but deployed on a 600-threshold module."""
        result, _ = run("double-sided", 139_000)
        assert result.broke_through

    def test_benign_traffic_unthrottled(self):
        mitigation = BlockHammerMitigation(design_threshold=4800)
        for row in range(1000):  # one ACT each: nowhere near blacklist
            decision = mitigation.permits(row)
            assert decision.allowed
            assert decision.delay_ns == 0.0
        assert mitigation.blocked_fraction == 0.0

    def test_throttle_delay_magnitude(self):
        """Section VIII: at RH-Threshold 1K a blacklisted access can take
        >125us — the paper's latency criticism."""
        mitigation = BlockHammerMitigation(design_threshold=1000)
        assert mitigation.throttle_delay_ns() > 125_000
        assert mitigation.throttle_delay_ns() > 1000 * TRC_NS

    def test_window_end_resets(self):
        mitigation = BlockHammerMitigation(design_threshold=100)
        for _ in range(60):
            mitigation.permits(5)
        assert not mitigation.permits(5).allowed
        mitigation.on_window_end()
        assert mitigation.permits(5).allowed

    def test_aggressors_capped_below_half_threshold(self):
        _, mitigation = run("double-sided", THRESHOLD)
        # The cap guarantees no row exceeded design/2 activations.
        assert mitigation.activation_cap < THRESHOLD / 2
