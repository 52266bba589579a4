"""Property tests on the cache-hierarchy invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.perf.organizations import BASELINE_ECC, safeguard

# Randomized access scripts over a small address universe so that sets
# conflict and evictions actually happen.
_accesses = st.lists(
    st.tuples(
        st.integers(0, 1),  # core
        st.integers(0, 4000),  # line index within a contended region
        st.booleans(),  # is_write
    ),
    min_size=20,
    max_size=120,
)


def _small_hierarchy(org=BASELINE_ECC):
    # Tiny caches: 2KB L1s over a 64KB "LLC" so interesting states arise.
    return CacheHierarchy(
        2, org, l1_kb=2, llc_mb=1, enable_prefetch=True
    )


class TestInclusion:
    @given(_accesses)
    @settings(max_examples=25, deadline=None)
    def test_l1_contents_always_in_llc(self, script):
        h = _small_hierarchy()
        now = 0.0
        for core, line, is_write in script:
            h.access(core, line * 64, is_write, now)
            now += 50.0
        for l1 in h.l1:
            for cache_set in l1._sets:
                for line in cache_set:
                    assert h.llc.contains(line), "inclusion violated"

    @given(_accesses)
    @settings(max_examples=15, deadline=None)
    def test_latency_floors(self, script):
        h = _small_hierarchy(safeguard(8))
        now = 0.0
        for core, line, is_write in script:
            outcome = h.access(core, line * 64, is_write, now)
            now += 50.0
            if is_write:
                assert outcome.latency_cpu >= h.STORE_CYCLES
            elif outcome.level == "l1":
                assert outcome.latency_cpu == h.L1_HIT_CYCLES
            elif outcome.level == "llc":
                assert outcome.latency_cpu == h.L1_HIT_CYCLES + h.LLC_HIT_CYCLES
            else:
                assert outcome.latency_cpu > h.LLC_HIT_CYCLES

    @given(_accesses)
    @settings(max_examples=15, deadline=None)
    def test_traffic_counters_monotone_and_consistent(self, script):
        h = _small_hierarchy()
        now = 0.0
        previous = 0
        for core, line, is_write in script:
            h.access(core, line * 64, is_write, now)
            now += 50.0
            assert h.dram_reads >= previous
            previous = h.dram_reads
        # Controller-level reads include every hierarchy-issued one.
        assert h.controller.reads == h.dram_reads
        assert h.controller.writes == h.dram_writes


class TestRepeatAccessLocality:
    def test_second_access_never_slower_level(self):
        order = {"l1": 0, "llc": 1, "dram": 2}
        h = _small_hierarchy()
        rng = random.Random(3)
        lines = [rng.randrange(4000) for _ in range(30)]
        for line in lines:
            first = h.access(0, line * 64, False, 0.0)
            second = h.access(0, line * 64, False, 10.0)
            assert order[second.level] <= order[first.level]
