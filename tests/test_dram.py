"""Tests for the DRAM timing model (timing, address map, controller)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address_map import map_address, packed_coordinate, packed_coordinates
from repro.dram.controller import MemoryController
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE, DDR4_3200


def _other_row(address):
    """An address in the same rank and bank as ``address``, another row."""
    rank, bank, row, _ = map_address(address)
    return next(
        a
        for a in range(1 << 13, 1 << 26, 1 << 13)
        if map_address(a)[:2] == (rank, bank) and map_address(a)[2] != row
    )


def _row_accesses(mc):
    return mc.row_hits + mc.row_misses + mc.row_conflicts


class TestTiming:
    def test_derived_latencies_ordered(self):
        t = DDR4_3200
        assert t.row_hit_cycles < t.row_miss_cycles < t.row_conflict_cycles

    def test_ddr4_3200_values(self):
        assert DDR4_3200.tCL == 22
        assert DDR4_3200.row_hit_cycles == 26
        assert DDR4_3200.row_miss_cycles == 48
        assert DDR4_3200.row_conflict_cycles == 70

    def test_cpu_ratio(self):
        assert CPU_CYCLES_PER_MEM_CYCLE == 2  # 3.2GHz core / 1.6GHz bus


class TestAddressMapper:
    def test_consecutive_lines_walk_the_row(self):
        a = map_address(0)
        b = map_address(64)
        assert a[:3] == b[:3]  # rank, bank, row
        assert b[3] == a[3] + 1

    def test_row_buffer_spans_128_lines(self):
        a = map_address(0)
        b = map_address(127 * 64)
        c = map_address(128 * 64)
        assert b[3] == 127
        assert a[:3] == b[:3]
        assert c[:3] != a[:3]

    @given(st.integers(0, (1 << 40) - 1), st.integers(0, (1 << 40) - 1))
    @settings(max_examples=60)
    def test_mapping_is_injective(self, addr_a, addr_b):
        line_a, line_b = addr_a // 64, addr_b // 64
        # Distinct lines within one device image (2 ranks x 16 banks x
        # 65536 rows x 128 columns = 2**28 lines) map to distinct coords.
        if line_a != line_b and line_a < 2 ** 28 and line_b < 2 ** 28:
            assert map_address(addr_a) != map_address(addr_b)

    def test_bank_hash_decorrelates_regions(self):
        """Streams at large address offsets must not share bank sequences."""
        banks_a = [map_address(i * 64)[1] for i in range(0, 4096, 128)]
        banks_b = [map_address((1 << 34) + i * 64)[1] for i in range(0, 4096, 128)]
        assert banks_a != banks_b

    def test_negative_address_rejected(self):
        """A negative address raises instead of folding its sign bits
        forever in the bank hash."""
        with pytest.raises(ValueError, match="negative"):
            map_address(-64)


def _packed(address):
    """The controller's memo value for ``address``, from the scalar map."""
    rank, bank, row, _ = map_address(address)
    return (row << 5) | (rank << 4) | bank


class TestPackedCoordinates:
    """The controller's memo format: the scalar decode it calls on a memo
    miss and the vectorized one the fast engine fills the memo with."""

    @given(st.lists(st.integers(0, (1 << 46) - 1), max_size=64))
    @settings(max_examples=60)
    def test_matches_map_address(self, addresses):
        packed = packed_coordinates(np.array(addresses, dtype=np.int64))
        assert packed.tolist() == [_packed(a) for a in addresses]
        assert [packed_coordinate(a) for a in addresses] == packed.tolist()

    def test_matches_map_address_at_field_boundaries(self):
        # Offset, column, bank, rank and row start at bits 0, 6, 13, 17
        # and 18; the row ends at bit 34, where the per-core regions
        # (core << 34) and the metadata region (1 << 44) sit. The
        # largest int64 folds every nibble into the bank.
        edges = [0]
        for bit in (6, 13, 17, 18, 34, 44):
            edges += [(1 << bit) - 1, 1 << bit, (1 << bit) + 1]
        addresses = [
            (core << 34) + edge for core in range(8) for edge in edges
        ] + [(1 << 46) - 1, (1 << 63) - 1]
        packed = packed_coordinates(np.array(addresses, dtype=np.int64))
        assert packed.tolist() == [_packed(a) for a in addresses]
        assert [packed_coordinate(a) for a in addresses] == packed.tolist()

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            packed_coordinates(np.array([0, -64], dtype=np.int64))
        with pytest.raises(ValueError, match="negative"):
            packed_coordinate(-64)


class TestBank:
    """One bank's open-row state machine, driven by same-bank addresses."""

    def test_hit_miss_conflict_sequence(self):
        mc = MemoryController()
        t1 = mc.read(0, 0.0)
        assert mc.row_misses == 1
        t2 = mc.read(64, t1)  # same row
        assert mc.row_hits == 1
        t3 = mc.read(_other_row(0), t2)
        assert mc.row_conflicts == 1
        assert t1 < t2 < t3

    def test_conflict_respects_tras(self):
        mc = MemoryController()
        mc.read(0, 0.0)
        # Immediately conflicting: precharge cannot happen before tRAS.
        data_at = mc.read(_other_row(0), 0.0)
        assert mc.row_conflicts == 1
        assert data_at >= DDR4_3200.tRAS + DDR4_3200.row_conflict_cycles

    def test_precharge_closes_row(self):
        """Refresh precharges every bank: the open row is gone after it."""
        mc = MemoryController()
        mc.read(0, 0.0)
        mc.read(64, float(DDR4_3200.tREFI) + 1.0)  # same row, after refresh
        assert mc.refreshes == 1
        assert (mc.row_hits, mc.row_misses) == (0, 2)

    def test_conflict_latency_after_trc(self):
        """Open-page: another row of an idle bank, long after its tRAS
        and tRP windows, pays exactly the precharge-first conflict path."""
        t = DDR4_3200
        mc = MemoryController()
        mc.read(0, 0.0)
        later = 4.0 * t.tRC  # well past any recovery window
        assert mc.read(_other_row(0), later) - later == t.row_conflict_cycles
        assert mc.row_conflicts == 1


class TestController:
    def test_read_latency_floor(self):
        mc = MemoryController()
        assert mc.read(0, 0.0) >= DDR4_3200.row_miss_cycles

    def test_row_hit_after_first_access(self):
        mc = MemoryController()
        first = mc.read(0, 0.0)
        second = mc.read(64, first)
        assert mc.row_hits == 1
        assert second - first == DDR4_3200.row_hit_cycles

    def test_bus_serializes_concurrent_reads(self):
        mc = MemoryController()
        # Two reads to different banks at the same instant: bursts cannot
        # overlap on the shared data bus.
        a = mc.read(0, 0.0)
        b = mc.read(1 << 20, 0.0)
        assert abs(a - b) >= DDR4_3200.tBL

    def test_read_queue_backpressure(self):
        mc = MemoryController()
        completions = [mc.read(i * (1 << 20), 0.0) for i in range(80)]
        # More requests than queue entries at one instant: the later ones
        # must be delayed past the earliest completions.
        assert completions[-1] > completions[0]

    def test_writes_consume_bandwidth(self):
        busy = MemoryController()
        idle = MemoryController()
        for i in range(64):
            busy.write(i * (1 << 14), 0.0)
        assert busy.read(1 << 26, 0.0) > idle.read(1 << 26, 0.0)

    def test_refresh_blocks_banks(self):
        mc = MemoryController()
        t = DDR4_3200
        mc.read(0, 0.0)
        assert mc.read(64, float(t.tREFI) + 1.0) >= t.tREFI + t.tRFC
        assert mc.refreshes >= 1

    def test_stats_accumulate(self):
        mc = MemoryController()
        now = 0.0
        for i in range(10):
            now = mc.read(i * 64, now)
        assert mc.reads == 10
        assert mc.row_hits / _row_accesses(mc) > 0.5  # sequential lines hit the row
        assert mc.total_read_latency / mc.reads > 0

    def test_open_page_stream_hits_the_row(self):
        mc = MemoryController()
        now = 0.0
        for i in range(32):  # sequential lines: one row
            now = mc.read(i * 64, now)
        assert mc.row_hits / _row_accesses(mc) > 0.9
