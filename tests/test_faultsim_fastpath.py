"""Equivalence and determinism suite for the vectorized Monte-Carlo engine.

Four pillars, mirroring the kernel-equivalence suite's fast/reference
oracle pattern:

- **Mode plumbing** — ``MonteCarloConfig.engine`` beats the
  ``FAULTSIM`` switch (override, then ``REPRO_FAULTSIM``, then the
  reference default; the switch itself is pinned in
  ``test_switches.py``), and the engine field in the science fingerprint.
- **Exact equivalence where promised** — multi-fault modules are
  replayed from their per-module streams and are bit-identical to the
  draw-interleaved loop; the fast engine is deterministic per seed and
  shard/worker-invariant.
- **Statistical equivalence elsewhere** — fast and reference curves
  agree across seeds (overlapping Wilson intervals, two-sample KS on
  pooled failure times).
- **Derived outcome tables** — the tables the vectorized classifier
  uses agree with every ``_EVALUATORS`` entry on every
  (scope, transient, chip) combination (hypothesis-driven placements).
"""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultsim import fastpath
from repro.faultsim.evaluators import (
    _EVALUATORS,
    ChipkillEvaluator,
    SafeGuardSECDEDEvaluator,
    SECDEDEvaluator,
)
from repro.faultsim.faults import place_fault
from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB, geometry_for
from repro.faultsim.montecarlo import (
    CODE_OUTCOMES,
    FailureColumns,
    MonteCarloConfig,
    _mode_categories,
    simulate,
)
from repro.faultsim.parallel import simulate_parallel
from repro.switches import FAULTSIM
from repro.utils.rng import derive_seed
from tests import oracles
from tests.test_montecarlo_parallel import assert_identical, failure_rows

#: Busy-module-rich population that still runs in well under a second.
STAT = dict(n_modules=6_000, fit_multiplier=5.0)


# --- mode plumbing ---------------------------------------------------------


class TestEnginePlumbing:
    def test_default_is_reference(self):
        assert FAULTSIM.default == "reference"
        with FAULTSIM.override("reference"):
            assert MonteCarloConfig().resolved_engine() == "reference"

    def test_config_beats_process_mode(self):
        with FAULTSIM.override("reference"):
            assert MonteCarloConfig(engine="fast").resolved_engine() == "fast"
        with FAULTSIM.override("fast"):
            assert MonteCarloConfig(engine="reference").resolved_engine() == (
                "reference"
            )
            assert MonteCarloConfig().resolved_engine() == "fast"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(engine="turbo").resolved_engine()
        with pytest.raises(ValueError):
            simulate(
                SECDEDEvaluator(X8_SECDED_16GB),
                X8_SECDED_16GB,
                MonteCarloConfig(engine="turbo", n_modules=10),
            )

    def test_fingerprint_records_engine(self):
        fast = MonteCarloConfig(engine="fast", **STAT)
        reference = MonteCarloConfig(engine="reference", **STAT)
        fp_fast = fast.science_fingerprint("secded", X8_SECDED_16GB)
        fp_ref = reference.science_fingerprint("secded", X8_SECDED_16GB)
        assert fp_fast["engine"] == "fast"
        assert fp_ref["engine"] == "reference"
        assert fp_fast != fp_ref


# --- the counter-based draw stream -----------------------------------------


class TestFastStreamRegression:
    """Pin the vectorized stream so refactors cannot silently reseed."""

    def test_child_seeds_match_derive_seed(self):
        base = derive_seed(42, fastpath.FAST_STREAM_SALT)
        indices = np.array([0, 1, 2, 99, 123456], dtype=np.uint64)
        vec = fastpath.child_seeds(np.uint64(base), indices)
        assert vec.tolist() == [
            derive_seed(42, fastpath.FAST_STREAM_SALT, int(i)) for i in indices
        ]

    def test_stream_salt_pinned(self):
        assert fastpath.FAST_STREAM_SALT == 0xFA57
        assert derive_seed(0, 0xFA57) == 13849808631107658232
        assert derive_seed(42, 0xFA57) == 5145267389444204416

    def test_unit_uniforms_range(self):
        seeds = fastpath.child_seeds(np.uint64(7), np.arange(1000, dtype=np.uint64))
        uniforms = fastpath.unit_uniforms(seeds)
        assert float(uniforms.min()) >= 0.0
        assert float(uniforms.max()) < 1.0


# --- exact equivalence where promised --------------------------------------


class TestFastDeterminism:
    @pytest.mark.parametrize("seed", [3, 7, 42])
    def test_same_seed_identical_result(self, seed):
        config = MonteCarloConfig(seed=seed, engine="fast", **STAT)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        first = simulate(evaluator, X8_SECDED_16GB, config)
        second = simulate(evaluator, X8_SECDED_16GB, config)
        assert first.n_failed > 0
        assert_identical(first, second)

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_shard_invariant(self, shards):
        config = MonteCarloConfig(seed=11, engine="fast", **STAT)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        sharded = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=1, shards=shards
        )
        assert sequential.n_failed > 0
        assert_identical(sequential, sharded)

    def test_process_pool_matches_sequential(self):
        config = MonteCarloConfig(seed=5, engine="fast", **STAT)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        pooled = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=2, shards=4
        )
        assert_identical(sequential, pooled)

    def test_env_mode_selects_fast(self):
        """simulate() under forced fast == explicit engine="fast"."""
        explicit = MonteCarloConfig(seed=3, engine="fast", **STAT)
        ambient = MonteCarloConfig(seed=3, **STAT)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        expected = simulate(evaluator, X8_SECDED_16GB, explicit)
        with FAULTSIM.override("fast"):
            assert_identical(
                expected, simulate(evaluator, X8_SECDED_16GB, ambient)
            )


class TestMultiFaultFallbackExact:
    """Modules with >= 2 faults are bit-identical to the draw-interleaved
    loop of ``tests/oracles.py``."""

    def test_all_multi_fault_modules_match_scalar(self):
        config = MonteCarloConfig(seed=9, n_modules=200)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        counts = np.array([2, 3, 2, 5, 4] * 40)
        fast = fastpath.simulate_range_fast(
            evaluator, X8_SECDED_16GB, config, counts, lo=17, hi=217
        )
        scalar = oracles.simulate_range(
            evaluator, X8_SECDED_16GB, config, counts, lo=17
        )
        assert len(scalar) > 0
        assert failure_rows(fast) == failure_rows(scalar)

    def test_mixed_population_decomposes(self):
        """fast(all) == fast(singles only) + oracle loop(multis only)."""
        config = MonteCarloConfig(seed=4, n_modules=240, fit_multiplier=10.0)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 4, size=240)
        singles = np.where(counts == 1, counts, 0)
        multis = np.where(counts >= 2, counts, 0)
        combined = fastpath.simulate_range_fast(
            evaluator, X8_SECDED_16GB, config, counts
        )
        decomposed = FailureColumns.concat(
            [
                fastpath.simulate_range_fast(
                    evaluator, X8_SECDED_16GB, config, singles
                ),
                oracles.simulate_range(evaluator, X8_SECDED_16GB, config, multis),
            ]
        )
        assert failure_rows(combined) == failure_rows(decomposed)

    def test_slice_validation(self):
        config = MonteCarloConfig(seed=3, **STAT)
        with pytest.raises(ValueError):
            fastpath.simulate_range_fast(
                SafeGuardSECDEDEvaluator(X8_SECDED_16GB),
                X8_SECDED_16GB,
                config,
                np.zeros(10, dtype=np.int64),
                0,
                20,
            )


class TestPinnedResults:
    """Exact results at 20K modules and 10x FIT, pinned per engine.

    The fast engine's multi-fault modules and the reference engine share
    one replay, so comparing them cannot catch a change to its draw
    order; these fixed numbers can. Chipkill corrects every
    single-chip fault, so its failures all come from the multi-fault loop
    and both engines agree exactly.
    """

    CONFIG = dict(n_modules=20_000, seed=7, fit_multiplier=10.0)
    CHIPKILL = (
        1695,
        1432,
        263,
        [
            ("multirank", 713),
            ("bit", 375),
            ("row", 114),
            ("bank", 172),
            ("column", 110),
            ("multibank", 190),
            ("word", 21),
        ],
        "3d6f5a78beefe43fcc76bf02ddd3096555d11a155b0809dbc58dc0568ad57833",
        [583.273745515169, 987.3852816020742],
    )
    EXPECTED = {
        ("secded", "reference"): (
            5098,
            8,
            5090,
            [
                ("multibank", 311),
                ("row", 1629),
                ("bank", 2102),
                ("word", 361),
                ("multirank", 687),
                ("column", 3),
                ("bit", 5),
            ],
            "bf57a0a8540a3701a93831ceffbd05bc2fb0bebdcf46bbe07ee8838632872466",
            [9.633906178116384, 15.950570668887533],
        ),
        ("secded", "fast"): (
            5064,
            8,
            5056,
            [
                ("row", 1598),
                ("bank", 2057),
                ("word", 349),
                ("multirank", 712),
                ("multibank", 340),
                ("column", 3),
                ("bit", 5),
            ],
            "4d8533b0ba4e97eede9caac534bb14b7bc4e5f6cc10fbf7c769a9f76cad7bec7",
            [3.3361696010178754, 5.375127490470142],
        ),
        ("chipkill", "reference"): CHIPKILL,
        ("chipkill", "fast"): CHIPKILL,
    }

    @pytest.mark.parametrize("scheme,engine", sorted(EXPECTED))
    def test_exact_result(self, scheme, engine):
        if scheme == "chipkill":
            evaluator, geometry = ChipkillEvaluator(X4_CHIPKILL_16GB), X4_CHIPKILL_16GB
        else:
            evaluator, geometry = SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB
        config = MonteCarloConfig(engine=engine, **self.CONFIG)
        result = simulate(evaluator, geometry, config)
        n_failed, n_due, n_sdc, by_scope, times_sha256, first = self.EXPECTED[
            (scheme, engine)
        ]
        assert (result.n_failed, result.n_due, result.n_sdc) == (n_failed, n_due, n_sdc)
        assert list(result.failures_by_scope.items()) == by_scope
        assert result.fail_times[:2] == first
        digest = hashlib.sha256(np.asarray(result.fail_times, "<f8").tobytes())
        assert digest.hexdigest() == times_sha256


# --- statistical fast == reference equivalence ------------------------------


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


class TestStatisticalEquivalence:
    SEEDS = (3, 7, 11)

    @pytest.fixture(scope="class")
    def results(self):
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        out = {}
        for engine in ("fast", "reference"):
            out[engine] = [
                simulate(
                    evaluator,
                    X8_SECDED_16GB,
                    MonteCarloConfig(seed=seed, engine=engine, **STAT),
                )
                for seed in self.SEEDS
            ]
        return out

    def test_wilson_intervals_overlap_per_seed(self, results):
        for fast, reference in zip(results["fast"], results["reference"]):
            assert fast.n_failed > 50  # a vacuous overlap proves nothing
            assert not fast.differs_significantly_from(reference)

    def test_failure_counts_close(self, results):
        """Pooled failure counts within a few sigma of each other."""
        n_fast = sum(r.n_failed for r in results["fast"])
        n_ref = sum(r.n_failed for r in results["reference"])
        assert abs(n_fast - n_ref) < 4 * math.sqrt(max(n_fast, n_ref))

    def test_ks_on_pooled_failure_times(self, results):
        pooled_fast = [t for r in results["fast"] for t in r.fail_times]
        pooled_ref = [t for r in results["reference"] for t in r.fail_times]
        statistic = ks_statistic(pooled_fast, pooled_ref)
        n, m = len(pooled_fast), len(pooled_ref)
        # alpha = 0.001 critical value: c(alpha) = sqrt(-ln(alpha/2) / 2).
        critical = math.sqrt(-math.log(0.0005) / 2) * math.sqrt((n + m) / (n * m))
        assert statistic < critical, (statistic, critical, n, m)

    def test_due_sdc_split_close(self, results):
        """The DUE/SDC decomposition agrees, not just the totals."""
        for key in ("n_due", "n_sdc"):
            fast = sum(getattr(r, key) for r in results["fast"])
            reference = sum(getattr(r, key) for r in results["reference"])
            assert abs(fast - reference) < 4 * math.sqrt(max(fast, reference, 9))


# --- derived outcome tables -------------------------------------------------

_DEFAULT_CATEGORIES, _ = _mode_categories(MonteCarloConfig())


class TestDerivedOutcomeTables:
    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(_EVALUATORS)),
        category=st.integers(0, len(_DEFAULT_CATEGORIES) - 1),
        chip_fraction=st.floats(0.0, 1.0, exclude_max=True),
        placement_seed=st.integers(0, 2**32 - 1),
    )
    def test_table_agrees_with_evaluator(
        self, scheme, category, chip_fraction, placement_seed
    ):
        geometry = geometry_for(scheme)
        evaluator = _EVALUATORS[scheme](geometry)
        table = fastpath.derive_outcome_table(
            evaluator, geometry, _DEFAULT_CATEGORIES
        )
        mode, transient = _DEFAULT_CATEGORIES[category]
        chip = int(chip_fraction * geometry.chips_per_rank)
        fault = place_fault(
            mode.scope, transient, 0.0, chip, geometry,
            random.Random(placement_seed),
        )
        expected = evaluator.classify([], fault)
        is_ecc = int(geometry.is_ecc_chip(chip))
        assert CODE_OUTCOMES[int(table[category, is_ecc])] is expected

    def test_exhaustive_over_chips(self):
        """Every (scheme, category, chip) cell, no sampling."""
        for scheme, factory in _EVALUATORS.items():
            geometry = geometry_for(scheme)
            evaluator = factory(geometry)
            table = fastpath.derive_outcome_table(
                evaluator, geometry, _DEFAULT_CATEGORIES
            )
            rng = random.Random(0)
            for index, (mode, transient) in enumerate(_DEFAULT_CATEGORIES):
                for chip in range(geometry.chips_per_rank):
                    fault = place_fault(
                        mode.scope, transient, 0.0, chip, geometry, rng
                    )
                    expected = evaluator.classify([], fault)
                    code = int(table[index, int(geometry.is_ecc_chip(chip))])
                    assert CODE_OUTCOMES[code] is expected, (
                        scheme, mode.scope, chip,
                    )

    def test_position_dependent_evaluator_rejected(self):
        class Flaky:
            calls = 0

            def classify(self, existing, new):
                from repro.faultsim.evaluators import Outcome

                Flaky.calls += 1
                return Outcome.DUE if Flaky.calls % 2 else Outcome.CORRECTED

        with pytest.raises(ValueError, match="position-dependent"):
            fastpath.derive_outcome_table(
                Flaky(), X8_SECDED_16GB, _DEFAULT_CATEGORIES
            )


# --- checkpoints never cross engines ----------------------------------------


class TestCrossEngineCheckpoints:
    def test_fast_checkpoints_rejected_by_reference_run(self, tmp_path):
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        fast_config = MonteCarloConfig(seed=3, engine="fast", **STAT)
        simulate_parallel(
            evaluator,
            X8_SECDED_16GB,
            fast_config,
            workers=1,
            shards=3,
            checkpoint_dir=str(tmp_path),
        )
        assert len(list(tmp_path.glob("faultsim-*.json"))) == 3
        reference_config = MonteCarloConfig(seed=3, engine="reference", **STAT)
        events = []
        resumed = simulate_parallel(
            evaluator,
            X8_SECDED_16GB,
            reference_config,
            workers=1,
            shards=3,
            checkpoint_dir=str(tmp_path),
            progress=events.append,
        )
        # Every fast checkpoint was rejected and recomputed by the
        # reference engine; the result is the pure reference one.
        assert events[-1].shards_from_checkpoint == 0
        assert_identical(
            resumed, simulate(evaluator, X8_SECDED_16GB, reference_config)
        )

    def test_same_engine_checkpoints_resume(self, tmp_path):
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB)
        config = MonteCarloConfig(seed=3, engine="fast", **STAT)
        first = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=1, shards=3,
            checkpoint_dir=str(tmp_path),
        )
        events = []
        second = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=1, shards=3,
            checkpoint_dir=str(tmp_path), progress=events.append,
        )
        assert events[-1].shards_from_checkpoint == 3
        assert_identical(first, second)
