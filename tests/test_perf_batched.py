"""Equivalence suite for the fast perf engine's batched content kernels.

The content pass runs per-set batched kernels over same-line-collapsed
columns (``fastpath._batched_replay``) and declines the cell — which
then runs on the reference engine — when it detects an inclusion
back-invalidation. Pinned from four directions:

- **Kernel properties** (hypothesis) — the per-set batched LRU kernels
  (:func:`fastpath._l1_kernel`, :func:`fastpath._llc_kernel`) replayed
  against straightforward dict/list LRU references over random access
  streams, including primed LLC state and all three probe kinds; the
  closed-form priming against one-at-a-time LRU fills
  (:func:`oracles.initial_llc_sets`), and the radix regroup against
  ``np.argsort(kind="stable")``.
- **Whole-pass equivalence** — the batched content pass agrees
  field-for-field with the per-access oracle
  (:func:`oracles.scalar_replay`, substituted for ``_batched_replay``:
  both take the uncollapsed columns) on outcomes, event tables and
  counters across workloads, seeds and random cells, which also pins
  the run collapse as exact.
- **Coordinate memo** — the content pass's decoded DRAM coordinates
  cover every address the timing tick maps.
- **Decline** (pinned) — shrinking the cache geometry until LLC
  evictions back-invalidate live L1 lines makes ``_batched_replay``
  return ``None``: the pass declines, the fallback counter records it,
  and ``run_workload`` returns the reference engine's result. The
  residency check fires exactly when the oracle counts a
  back-invalidation, and the default geometry never declines.

The timing tick is pinned by the golden corpus's ``result_fast``
records (``tests/test_perf_fastpath.py``).
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.workloads import profile
from repro.perf import fastpath
from repro.perf.model import PerfConfig, run_workload
from repro.perf.organizations import BASELINE_ECC, safeguard, sgx_style
from tests import oracles

#: Small but mechanism-covering scale for whole-pass comparisons.
SCALE = dict(n_cores=2, instructions_per_core=8_000, warmup_instructions=2_000)

WORKLOADS = ["gcc", "mcf", "bwaves", "lbm"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    fastpath._CONTENT_MEMO.clear()
    yield
    fastpath._CONTENT_MEMO.clear()


def _content(workload, seed=0, replay=None, **overrides):
    """One freshly computed content pass, replayed by ``replay`` in place
    of ``fastpath._batched_replay`` when given."""
    params = {**SCALE, **overrides}
    fastpath._CONTENT_MEMO.clear()
    with pytest.MonkeyPatch.context() as patch:
        if replay is not None:
            patch.setattr(fastpath, "_batched_replay", replay)
        return fastpath._content_pass(
            profile(workload),
            params["n_cores"],
            seed,
            params["instructions_per_core"],
            params["warmup_instructions"],
        )


def _oracle_content(workload, seed=0, **overrides):
    """The content pass replayed by :func:`oracles.scalar_replay`, and the
    oracle's counters (``back_invalidations`` among them)."""
    counters = {}

    def replay(*args):
        replayed = oracles.scalar_replay(*args)
        counters.update(replayed[0])
        return replayed

    return _content(workload, seed, replay, **overrides), counters


def _assert_content_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name in ("serializing", "is_write"):  # per-core numpy columns
            assert len(x) == len(y)
            for xc, yc in zip(x, y):
                np.testing.assert_array_equal(xc, yc)
        else:
            assert x == y, field.name


# --- kernel properties (hypothesis) ----------------------------------------


def _ref_lru_l1(set_ids, lines, writes, ways):
    """Dict/list LRU reference for the L1 kernel's per-probe outputs."""
    state = {}
    hit = np.zeros(len(lines), dtype=bool)
    vline = np.full(len(lines), -1, dtype=np.int64)
    vdirty = np.zeros(len(lines), dtype=bool)
    for k, (s, ln, wr) in enumerate(zip(set_ids, lines, writes)):
        entries = state.setdefault(s, [])
        entry = next((e for e in entries if e[0] == ln), None)
        if entry is not None:
            hit[k] = True
            entries.remove(entry)
            entry[1] = entry[1] or wr
            entries.append(entry)
            continue
        if len(entries) >= ways:
            old = entries.pop(0)
            vline[k], vdirty[k] = old[0], old[1]
        entries.append([ln, bool(wr)])
    return hit, vline, vdirty


def _ref_llc(set_ids, lines, kinds, init_sets, ways):
    """List LRU reference for the LLC kernel (demand/touch/prefetch)."""
    state = [[[ln, bool(d)] for ln, d in llc_set.items()] for llc_set in init_sets]
    hit = np.zeros(len(lines), dtype=bool)
    vline = np.full(len(lines), -1, dtype=np.int64)
    vdirty = np.zeros(len(lines), dtype=bool)
    for k, (s, ln, kd) in enumerate(zip(set_ids, lines, kinds)):
        entries = state[s]
        entry = next((e for e in entries if e[0] == ln), None)
        if entry is not None:
            hit[k] = True
            if kd <= 1:  # demand/touch refresh; prefetch hit is a no-op
                entries.remove(entry)
                entry[1] = entry[1] or kd == 1
                entries.append(entry)
            continue
        if kd == 1:  # inclusion writeback: set untouched
            continue
        if len(entries) >= ways:
            old = entries.pop(0)
            vline[k], vdirty[k] = old[0], old[1]
        entries.append([ln, False])
    return hit, vline, vdirty


def _resident(tags):
    """Per set, the ``(line, dirty)`` pairs of a packed priming matrix."""
    return [
        [(int(t) >> 1, bool(int(t) & 1)) for t in row if int(t) >= 0] for row in tags
    ]


def _resident_sets(sets):
    return [[(ln, bool(d)) for ln, d in llc_set.items()] for llc_set in sets]


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.integers(0, 31), st.booleans()), max_size=150
        ),
        ways=st.integers(1, 4),
        n_sets=st.sampled_from([1, 2, 4]),
    )
    def test_l1_kernel_matches_reference(self, probes, ways, n_sets):
        lines = np.array([p[0] for p in probes], dtype=np.int64)
        writes = np.array([p[1] for p in probes], dtype=bool)
        set_ids = lines % n_sets
        hit, vline, vdirty = fastpath._l1_kernel(set_ids, lines, writes, ways)
        rhit, rvline, rvdirty = _ref_lru_l1(
            set_ids.tolist(), lines.tolist(), writes.tolist(), ways
        )
        np.testing.assert_array_equal(hit, rhit)
        np.testing.assert_array_equal(vline, rvline)
        np.testing.assert_array_equal(vdirty, rvdirty)

    @settings(max_examples=60, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.integers(0, 95), st.integers(0, 2)), max_size=300
        ),
        fills=st.lists(
            st.tuples(st.integers(0, 95), st.booleans()), max_size=120
        ),
        ways=st.sampled_from([1, 2, 3, 16]),
        n_sets=st.sampled_from([1, 2, 4]),
    )
    @example(  # a 16-way set cycling 40 lines: every probe past the 16th evicts
        probes=[(i % 40, (0, 0, 1, 2)[i % 4]) for i in range(200)],
        fills=[(i % 24, i % 3 == 0) for i in range(60)],
        ways=16,
        n_sets=1,
    )
    def test_llc_kernel_matches_reference(self, probes, fills, ways, n_sets):
        lines = np.array([p[0] for p in probes], dtype=np.int64)
        kinds = np.array([p[1] for p in probes], dtype=np.int8)
        set_ids = lines % n_sets
        fill_lines = np.array([f[0] for f in fills], dtype=np.int64)
        fill_dirty = np.array([f[1] for f in fills], dtype=bool)
        tags = fastpath._initial_llc_arrays(fill_lines, fill_dirty, n_sets, ways)
        init_sets = oracles.initial_llc_sets(fill_lines, fill_dirty, n_sets, ways)
        hit, vline, vdirty = fastpath._llc_kernel(set_ids, lines, kinds, tags, ways)
        rhit, rvline, rvdirty = _ref_llc(
            set_ids.tolist(), lines.tolist(), kinds.tolist(), init_sets, ways
        )
        np.testing.assert_array_equal(hit, rhit)
        np.testing.assert_array_equal(vline, rvline)
        np.testing.assert_array_equal(vdirty, rvdirty)

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(st.integers(0, (1 << 40) - 1), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=300),
        shift=st.sampled_from([0, 16, 24, 40]),
    )
    def test_radix_argsort_matches_stable_argsort(self, pool, picks, shift):
        """Few distinct keys, heavily duplicated, one to three digits wide."""
        keys = np.array([pool[p % len(pool)] >> shift for p in picks], dtype=np.int64)
        np.testing.assert_array_equal(
            fastpath._radix_argsort(keys), np.argsort(keys, kind="stable")
        )

    @settings(max_examples=60, deadline=None)
    @given(
        fills=st.lists(
            st.tuples(st.integers(0, 63), st.booleans()), max_size=200
        ),
        high=st.sampled_from([0, 1 << 16, 1 << 28]),
        ways=st.sampled_from([1, 2, 4, 16]),
        n_sets=st.sampled_from([1, 2, 8]),
    )
    def test_priming_matches_sequential_lru_fills(self, fills, high, ways, n_sets):
        """The closed-form priming equals filling LRU sets one line at a time."""
        lines = np.array([high + f[0] for f in fills], dtype=np.int64)
        dirty = np.array([f[1] for f in fills], dtype=bool)
        tags = fastpath._initial_llc_arrays(lines, dirty, n_sets, ways)
        assert _resident(tags) == _resident_sets(
            oracles.initial_llc_sets(lines, dirty, n_sets, ways)
        )

    def test_initial_llc_arrays_matches_sets(self):
        rng = np.random.default_rng(7)
        fills = rng.integers(0, 64, size=200)
        dirty = rng.random(200) < 0.3
        ways, n_sets = 4, 8
        tags = fastpath._initial_llc_arrays(fills, dirty, n_sets, ways)
        sets = oracles.initial_llc_sets(fills, dirty, n_sets, ways)
        assert _resident(tags) == _resident_sets(sets)


# --- whole-pass equivalence ------------------------------------------------


class TestContentPassEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_equals_scalar(self, workload, seed):
        batched = _content(workload, seed=seed)
        scalar, _ = _oracle_content(workload, seed=seed)
        _assert_content_equal(batched, scalar)

    @settings(max_examples=8, deadline=None)
    @given(
        workload=st.sampled_from(
            ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]
        ),
        seed=st.integers(0, 5),
        instructions=st.integers(1_000, 5_000),
        n_cores=st.integers(1, 2),
        warmup=st.sampled_from([0, 400]),
    )
    def test_batched_equals_scalar_random_cells(
        self, workload, seed, instructions, n_cores, warmup
    ):
        overrides = dict(
            n_cores=n_cores,
            instructions_per_core=instructions,
            warmup_instructions=warmup,
        )
        batched = _content(workload, seed=seed, **overrides)
        scalar, _ = _oracle_content(workload, seed=seed, **overrides)
        _assert_content_equal(batched, scalar)

    def test_batched_counter_increments(self):
        before = fastpath._BATCH_STATS["batched"]
        _content("gcc", seed=3)
        assert fastpath._BATCH_STATS["batched"] == before + 1


# --- the DRAM coordinate memo ----------------------------------------------


class TestCoordinateMemo:
    @pytest.mark.parametrize("workload", ["gcc", "lbm"])
    def test_prefilled_memo_covers_the_tick(self, workload):
        """Every address the tick maps is decoded by the content pass;
        only metadata addresses are still added lazily."""
        content = _content(workload)
        decoded = dict(content.coords)
        config = PerfConfig(**SCALE)
        for organization in (BASELINE_ECC, safeguard(8)):
            fastpath._timing_pass(content, profile(workload), organization, config)
            assert content.coords == decoded
        sgx = sgx_style(8)
        fastpath._timing_pass(content, profile(workload), sgx, config)
        added = content.coords.keys() - decoded.keys()
        assert added
        assert added <= {sgx.metadata_address(address) for address in decoded}


# --- the decline (pinned) --------------------------------------------------


class TestScalarFallback:
    @pytest.fixture()
    def tiny_llc(self, monkeypatch):
        """Shrink the hierarchy until the LLC back-invalidates L1 lines.

        2 LLC sets x 2 ways hold 4 lines; the two cores' L1s (2 sets x
        4 ways each) hold up to 16 — LLC evictions of still-live L1
        lines are then guaranteed on a random-heavy workload, which is
        exactly the cross-set interaction the batched decomposition
        cannot replay.
        """
        monkeypatch.setattr(fastpath, "_L1_SET_BITS", 1)
        monkeypatch.setattr(fastpath, "_LLC_SETS", 2)
        monkeypatch.setattr(fastpath, "_LLC_WAYS", 2)

    CELL = dict(instructions_per_core=3_000, warmup_instructions=500)

    def test_back_invalidation_triggers_fallback(self, tiny_llc):
        before = dict(fastpath._BATCH_STATS)
        assert _content("mcf", **self.CELL) is fastpath.DECLINED
        assert fastpath._BATCH_STATS["fallbacks"] == before["fallbacks"] + 1
        assert fastpath._BATCH_STATS["batched"] == before["batched"]
        _, counters = _oracle_content("mcf", **self.CELL)
        assert counters["back_invalidations"] > 0

    def test_declined_cell_runs_on_the_reference_engine(self, tiny_llc):
        config = PerfConfig(n_cores=2, engine="fast", **self.CELL)
        before = fastpath._BATCH_STATS["fallbacks"]
        fast = run_workload(profile("mcf"), safeguard(), config)
        assert fastpath._BATCH_STATS["fallbacks"] == before + 1
        reference = run_workload(
            profile("mcf"), safeguard(), dataclasses.replace(config, engine="reference")
        )
        assert fast == reference

    def test_residency_check_misses_no_back_invalidation(self, monkeypatch):
        """Near the back-invalidation threshold the check fires iff the
        oracle back-invalidates a live L1 line.

        At these shrunk geometries some cells decline and some do not.
        Every cell the residency check lets through equals the oracle
        replay, which back-invalidates nothing there; every cell it
        declines back-invalidates in the oracle replay.
        """
        batched = declined = 0
        for l1_set_bits, llc_sets, llc_ways in [(1, 16, 4), (1, 64, 4), (1, 256, 2)]:
            monkeypatch.setattr(fastpath, "_L1_SET_BITS", l1_set_bits)
            monkeypatch.setattr(fastpath, "_LLC_SETS", llc_sets)
            monkeypatch.setattr(fastpath, "_LLC_WAYS", llc_ways)
            for workload in ("gcc", "mcf", "leela", "lbm"):
                for seed in (0, 1):
                    automatic = _content(workload, seed=seed, **self.CELL)
                    oracle, counters = _oracle_content(workload, seed=seed, **self.CELL)
                    if automatic is fastpath.DECLINED:
                        declined += 1
                        assert counters["back_invalidations"] > 0
                    else:
                        batched += 1
                        assert counters["back_invalidations"] == 0
                        _assert_content_equal(automatic, oracle)
        assert batched > 0 and declined > 0

    def test_default_geometry_never_falls_back(self):
        before = dict(fastpath._BATCH_STATS)
        for workload in WORKLOADS:
            _content(workload, seed=7)
        assert fastpath._BATCH_STATS["fallbacks"] == before["fallbacks"]
        assert fastpath._BATCH_STATS["batched"] == before["batched"] + len(WORKLOADS)


# --- CLI / campaign integration --------------------------------------------


class TestIntegration:
    def test_fingerprint_pins_kernel_revision(self):
        from repro.perf.campaign import cell_fingerprint, plan_grid

        cells = plan_grid([safeguard()], ["gcc"], [0])
        fast = cell_fingerprint(cells[0], PerfConfig(engine="fast", **SCALE))
        reference = cell_fingerprint(
            cells[0], PerfConfig(engine="reference", **SCALE)
        )
        assert fast["kernel_revision"] == fastpath.KERNEL_REVISION
        assert reference["kernel_revision"] == 0

    def test_profiling_report_shape(self):
        from repro.perf.profiling import PASSES, describe, profile_passes

        report = profile_passes(
            ["gcc"],
            PerfConfig(n_cores=2, instructions_per_core=2_000,
                       warmup_instructions=500),
            top_n=5,
        )
        assert set(report["passes"]) == set(PASSES)
        for section in report["passes"].values():
            assert section["seconds"] >= 0.0
            assert len(section["top"]) <= 5
            for row in section["top"]:
                assert {"function", "cumtime_s", "tottime_s", "ncalls"} <= set(row)
        assert describe(report)  # renders without error

    def test_profile_flag_rejected_off_grid(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="--profile"):
            run_experiment("table1", profile_to="/tmp/nope.json")

    def test_oversubscribed_workers_warn_and_clamp(self, monkeypatch):
        from repro.perf.campaign import resolve_workers

        monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_workers(6) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(6, strict=True) == 6
