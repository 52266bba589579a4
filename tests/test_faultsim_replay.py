"""The Monte-Carlo replay equals the draw-interleaved loop it replaced.

Both engines replay each busy module's ``derive_seed(seed, 0x51A7, i)``
stream: the words are drawn as one block, decoded in numpy, and most
arrivals are classified from the derived clean-module table. The
draw-interleaved loop lives on in ``tests/oracles.py``; here:

- **oracle equality** — failure columns equal the oracle's row for row
  for every registered evaluator, five geometries, two seeds, three
  scrub settings and three FIT rates, under both engines' module sets,
  and for evaluators whose outcome depends on position or escalates
  with overlap;
- **the no-overlap contract** the table path rests on, property-tested
  for every registered evaluator;
- **word exhaustion** — with the block shrunk so that modules run short
  and are redrawn, small chunks and windows, and a one-word look-ahead,
  results stay exact;
- **interpreter drift** — decoded draws equal direct ``random.Random``
  calls, so a CPython change to ``random()`` or ``randrange`` fails here.
"""

import bisect
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultsim import fastpath, montecarlo
from repro.faultsim.evaluators import (
    _EVALUATORS,
    Outcome,
    SafeGuardSECDEDEvaluator,
    SECDEDEvaluator,
)
from repro.faultsim.faults import place_fault
from repro.faultsim.fit import FAULT_MODES, Scope
from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB
from repro.faultsim.montecarlo import (
    OUTCOME_CODES,
    MonteCarloConfig,
    draw_fault_counts,
    simulate_range,
)
from repro.utils import units
from repro.utils.rng import derive_seed
from tests import oracles
from tests.test_montecarlo_parallel import failure_rows

GEOMETRIES = {
    "x8": X8_SECDED_16GB,
    "x4": X4_CHIPKILL_16GB,
    "one-rank": dataclasses.replace(X8_SECDED_16GB, ranks=1, rows=64),
    "odd": dataclasses.replace(
        X8_SECDED_16GB,
        name="odd",
        ranks=1,
        banks=3,
        rows=1000,
        cols=24,
        bits_per_chip=3,
        chips_per_rank=5,
        data_chips_per_rank=4,
    ),
    # Two lines per row and two rows: faults share a line but not a
    # column often, which tells line from word granularity apart.
    "tiny": dataclasses.replace(
        X8_SECDED_16GB, name="tiny", ranks=1, banks=1, rows=2, cols=16
    ),
}

#: Modules per FIT multiplier: enough busy and multi-fault modules at
#: each rate while the oracle stays quick.
MODULES_AT_FIT = {1.0: 3000, 10.0: 500, 40.0: 200}

#: (seed, scrub hours, FIT multiplier): each seed meets every scrub
#: setting and every FIT rate.
CASES = [
    (1, None, 1.0),
    (1, 12.0, 10.0),
    (1, 500.0, 40.0),
    (2, None, 10.0),
    (2, 12.0, 40.0),
    (2, 500.0, 1.0),
]


def _config(seed, scrub, fit):
    return MonteCarloConfig(
        n_modules=MODULES_AT_FIT[fit],
        seed=seed,
        fit_multiplier=fit,
        scrub_interval_hours=scrub,
    )


# --- oracle equality --------------------------------------------------------


class TestOracleEquality:
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("scheme", sorted(_EVALUATORS))
    def test_both_engines_match_oracle(self, scheme, geometry):
        geometry = GEOMETRIES[geometry]
        evaluator = _EVALUATORS[scheme](geometry)
        multi_fault_rows = 0
        for seed, scrub, fit in CASES:
            config = _config(seed, scrub, fit)
            counts = draw_fault_counts(config, geometry)
            lo = 3  # a shard that does not start at module 0
            tail = counts[lo:]
            reference = simulate_range(evaluator, geometry, config, tail, lo)
            assert failure_rows(reference) == failure_rows(
                oracles.simulate_range(evaluator, geometry, config, tail, lo)
            ), (seed, scrub, fit)
            fast = fastpath.simulate_range_fast(evaluator, geometry, config, tail, lo)
            assert failure_rows(fast) == failure_rows(
                oracles.simulate_range_fast(evaluator, geometry, config, tail, lo)
            ), (seed, scrub, fit)
            multi_fault_rows += int((tail >= 2).sum())
        assert multi_fault_rows > 50

    @pytest.mark.parametrize("geometry", ["x8", "tiny"])
    def test_overlap_that_changes_a_failure_is_classified(self, geometry):
        """An arrival that overlaps an earlier fault reaches the evaluator
        even when its clean outcome is already a failure."""

        class Escalating(SafeGuardSECDEDEvaluator):
            def classify(self, existing, new):
                outcome = super().classify(existing, new)
                if outcome.is_failure and any(
                    e.overlaps(new, line_granularity=True) for e in existing
                ):
                    return Outcome.SDC
                return outcome

        geometry = GEOMETRIES[geometry]
        evaluator = Escalating(geometry)
        config = MonteCarloConfig(n_modules=300, seed=6, fit_multiplier=40.0)
        counts = draw_fault_counts(config, geometry)
        replayed = simulate_range(evaluator, geometry, config, counts)
        assert (replayed.outcome == OUTCOME_CODES[Outcome.SDC]).any()  # escalated
        assert failure_rows(replayed) == failure_rows(
            oracles.simulate_range(evaluator, geometry, config, counts)
        )

    def test_position_dependent_evaluator_runs_every_module(self):
        """No table: the reference engine classifies every module one by
        one and still equals the oracle; the fast engine refuses."""

        class Positional(SECDEDEvaluator):
            def classify(self, existing, new):
                outcome = super().classify(existing, new)
                if not existing and new.scope is Scope.BIT and new.row % 2:
                    return Outcome.DUE
                return outcome

        geometry = X8_SECDED_16GB
        evaluator = Positional(geometry)
        config = MonteCarloConfig(n_modules=400, seed=5, fit_multiplier=10.0)
        counts = draw_fault_counts(config, geometry)
        replayed = simulate_range(evaluator, geometry, config, counts)
        assert len(replayed) > 0
        assert failure_rows(replayed) == failure_rows(
            oracles.simulate_range(evaluator, geometry, config, counts)
        )
        with pytest.raises(ValueError, match="position-dependent"):
            fastpath.simulate_range_fast(evaluator, geometry, config, counts)

    def test_only_undecided_modules_reach_the_evaluator_loop(self, monkeypatch):
        """A module with one fault is always decided by the table."""
        calls = []
        loop = montecarlo._simulate_module
        monkeypatch.setattr(
            montecarlo,
            "_simulate_module",
            lambda evaluator, faults, scrub: calls.append(1)
            or loop(evaluator, faults, scrub),
        )
        geometry = X8_SECDED_16GB
        evaluator = SECDEDEvaluator(geometry)
        config = MonteCarloConfig(n_modules=2000, seed=4, fit_multiplier=10.0)
        counts = draw_fault_counts(config, geometry)
        singles = np.where(counts == 1, counts, 0)
        simulate_range(evaluator, geometry, config, singles)
        assert calls == []
        simulate_range(evaluator, geometry, config, counts)
        assert 0 < len(calls) < int((counts >= 2).sum())


# --- the no-overlap contract ------------------------------------------------

#: A small module, so faults that share a rank, bank or row without
#: overlapping come up often.
SMALL = dataclasses.replace(
    X8_SECDED_16GB, name="small", ranks=2, banks=2, rows=3, cols=32
)
SMALL_X4 = dataclasses.replace(
    X4_CHIPKILL_16GB, name="small-x4", ranks=2, banks=2, rows=3, cols=32
)
SCOPES = [mode.scope for mode in FAULT_MODES]


@st.composite
def faults(draw, geometry):
    scope = draw(st.sampled_from(SCOPES))
    chip = draw(st.integers(0, geometry.chips_per_rank - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return place_fault(scope, draw(st.booleans()), 0.0, chip, geometry, rng)


class TestNoOverlapContract:
    @pytest.mark.parametrize("scheme", sorted(_EVALUATORS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_non_overlapping_faults_leave_the_outcome_clean(self, scheme, data):
        geometry = SMALL_X4 if "chipkill" in scheme else SMALL
        evaluator = _EVALUATORS[scheme](geometry)
        new = data.draw(faults(geometry))
        existing = [
            fault
            for fault in data.draw(st.lists(faults(geometry), max_size=6))
            if not fault.overlaps(new, line_granularity=True)
        ]
        assert evaluator.classify(existing, new) is evaluator.classify([], new)

    def test_overlap_does_change_outcomes(self):
        """The property is not vacuous: overlapping faults do matter."""
        geometry = SMALL
        evaluator = SECDEDEvaluator(geometry)
        bit = place_fault(Scope.BIT, False, 0.0, 0, geometry, random.Random(1))
        same_word = dataclasses.replace(bit, chip=1)
        assert evaluator.classify([], same_word) is Outcome.CORRECTED
        assert evaluator.classify([bit], same_word) is Outcome.DUE


# --- word exhaustion and look-ahead misses ----------------------------------


class TestShortBlocks:
    @pytest.mark.parametrize("scheme", ["secded", "safeguard-chipkill"])
    def test_redrawn_modules_stay_exact(self, scheme, monkeypatch):
        geometry = X4_CHIPKILL_16GB if "chipkill" in scheme else X8_SECDED_16GB
        evaluator = _EVALUATORS[scheme](geometry)
        config = MonteCarloConfig(
            n_modules=600, seed=8, fit_multiplier=20.0, scrub_interval_hours=12.0
        )
        counts = draw_fault_counts(config, geometry)
        expected = failure_rows(oracles.simulate_range(evaluator, geometry, config, counts))
        blocks = []
        draw = montecarlo._draw_words
        monkeypatch.setattr(
            montecarlo,
            "_draw_words",
            lambda seeds, n_words: blocks.append(n_words) or draw(seeds, n_words),
        )
        monkeypatch.setattr(montecarlo, "_WORDS_PER_FAULT", 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_MODULES", 37)
        monkeypatch.setattr(montecarlo, "_WINDOW_MODULES", 101)
        assert failure_rows(simulate_range(evaluator, geometry, config, counts)) == expected
        first_blocks = {montecarlo._block_words(int(n)) for n in counts[counts > 0]}
        assert set(blocks) - first_blocks  # some modules were redrawn
        monkeypatch.setattr(montecarlo, "_LOOKAHEAD", 1)  # every rejection misses
        assert failure_rows(simulate_range(evaluator, geometry, config, counts)) == expected


# --- interpreter drift ------------------------------------------------------


class TestDecodedDraws:
    @pytest.mark.parametrize("geometry", ["x8", "odd"])
    @pytest.mark.parametrize("n_faults", [1, 3])
    def test_decoded_draws_equal_random_calls(self, geometry, n_faults):
        geometry = GEOMETRIES[geometry]
        config = MonteCarloConfig(seed=17)
        replay = montecarlo._Replay(SECDEDEvaluator(geometry), geometry, config, None)
        seeds = [derive_seed(config.seed, 0x51A7, i) for i in range(300)]
        times, category, draws, short = replay.decode(
            seeds, n_faults, montecarlo._block_words(n_faults)
        )
        total_hours = config.years * units.HOURS_PER_YEAR
        sizes = (
            geometry.chips_per_rank,
            geometry.ranks,
            geometry.banks,
            geometry.rows,
            geometry.cols,
            geometry.bits_per_chip,
        )
        checked = 0
        for i, seed in enumerate(seeds):
            if short[i]:
                continue
            rng = random.Random(seed)
            expected_times = sorted(rng.uniform(0.0, total_hours) for _ in range(n_faults))
            assert times[i].tolist() == expected_times
            for j in range(n_faults):
                assert category[i, j] == bisect.bisect_left(
                    replay.cumulative, rng.random()
                )
                assert draws[:, i, j].tolist() == [rng.randrange(n) for n in sizes]
            checked += 1
        assert checked > 250
