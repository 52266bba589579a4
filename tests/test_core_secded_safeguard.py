"""Tests for the SafeGuard-SECDED controller (Section IV)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SafeGuardConfig
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadStatus

KEY = b"secded-test-key!"


def make(column_parity=True, **kwargs):
    return SafeGuardSECDED(
        SafeGuardConfig(key=KEY, column_parity=column_parity, **kwargs)
    )


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


class TestLayout:
    def test_mac_width_by_variant(self):
        assert make(column_parity=True).mac_bits == 46
        assert make(column_parity=False).mac_bits == 54

    def test_metadata_fits_64_bits(self):
        for variant in (True, False):
            controller = make(column_parity=variant)
            controller.write(0x40, random_line(1))
            assert controller.backend.load(0x40).meta >> 64 == 0

    def test_oversized_mac_rejected(self):
        with pytest.raises(ValueError):
            make(column_parity=True, mac_bits=60)

    def test_write_requires_64_bytes(self):
        with pytest.raises(ValueError):
            make().write(0x40, b"short")


class TestFaultFreePath:
    def test_clean_read(self):
        controller = make()
        line = random_line(2)
        controller.write(0x40, line)
        result = controller.read(0x40)
        assert result.status is ReadStatus.CLEAN
        assert result.data == line
        assert result.costs.mac_checks == 1  # the paper's only recurring cost
        assert result.costs.latency_cycles == controller.config.mac_latency_cycles

    def test_stats_track_reads_and_writes(self):
        controller = make()
        controller.write(0x40, random_line(3))
        controller.read(0x40)
        controller.read(0x40)
        assert controller.stats.writes == 1
        assert controller.stats.reads == 2
        assert controller.stats.clean_reads == 2


class TestSingleBitCorrection:
    @given(st.integers(0, 511))
    @settings(max_examples=40, deadline=None)
    def test_any_data_bit(self, bit):
        controller = make()
        line = random_line(4)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, 1 << bit)
        result = controller.read(0x40)
        assert result.status is ReadStatus.CORRECTED_BIT
        assert result.data == line

    @given(st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_any_metadata_bit(self, bit):
        """ECC-1 covers the MAC and parity fields too."""
        controller = make()
        line = random_line(5)
        controller.write(0x40, line)
        controller.inject_meta_bits(0x40, 1 << bit)
        result = controller.read(0x40)
        assert result.ok
        assert result.data == line

    def test_variant_without_parity_corrects_single_bit(self):
        controller = make(column_parity=False)
        line = random_line(6)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, 1 << 300)
        result = controller.read(0x40)
        assert result.status is ReadStatus.CORRECTED_BIT
        assert result.data == line


class TestColumnRecovery:
    @given(st.integers(0, 63), st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_any_pin_any_pattern(self, pin, symbol):
        controller = make()
        line = random_line(7)
        controller.write(0x40, line)
        controller.inject_pin_failure(0x40, pin, symbol)
        result = controller.read(0x40)
        assert result.data == line
        assert result.status in (
            ReadStatus.CORRECTED_COLUMN,
            ReadStatus.CORRECTED_BIT,  # single-bit symbols are ECC-1 territory
        )

    def test_column_fault_without_parity_is_due(self):
        controller = make(column_parity=False)
        line = random_line(8)
        controller.write(0x40, line)
        mask = 0
        for beat in range(8):
            mask |= 1 << (beat * 64 + 9)
        controller.inject_data_bits(0x40, mask)
        assert controller.read(0x40).status is ReadStatus.DETECTED_UE

    def test_remembered_column_short_circuits(self):
        controller = make()
        line = random_line(9)
        controller.write(0x40, line)
        controller.inject_pin_failure(0x40, 21, 0xFF)
        first = controller.read(0x40)
        controller.write(0x80, line)
        controller.inject_pin_failure(0x80, 21, 0xF0)
        second = controller.read(0x80)
        assert second.costs.correction_iterations <= first.costs.correction_iterations
        assert second.costs.correction_iterations == 1

    def test_eager_mode_single_mac_check(self):
        controller = make()
        line = random_line(10)
        for i in range(controller.config.column_eager_after + 2):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_pin_failure(address, 33, 0b1111)
            result = controller.read(address)
            assert result.data == line
        assert result.costs.mac_checks == 1  # eager steady state

    def test_eager_falls_back_when_pin_changes(self):
        controller = make()
        line = random_line(11)
        for i in range(controller.config.column_eager_after + 1):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_pin_failure(address, 33, 0b1111)
            controller.read(address)
        # A different pin now fails: eager guess misses, full path recovers.
        controller.write(0x4000, line)
        controller.inject_pin_failure(0x4000, 50, 0b0110)
        result = controller.read(0x4000)
        assert result.data == line
        assert result.corrected_location == 50

    def test_clean_read_resets_eagerness(self):
        controller = make()
        line = random_line(12)
        for i in range(controller.config.column_eager_after + 1):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_pin_failure(address, 12, 0xFF)
            controller.read(address)
        controller.write(0x8000, line)
        clean = controller.read(0x8000)
        assert clean.status is ReadStatus.CLEAN
        assert controller.columns.streak == 0


class TestDetection:
    @given(st.integers(1, (1 << 512) - 1))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_corruption_never_silent(self, mask):
        """The paper's core guarantee: any corruption is corrected or
        flagged — never silently consumed (up to 2^-46)."""
        controller = make()
        line = random_line(13)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, mask)
        result = controller.read(0x40)
        if result.ok:
            assert result.data == line
        assert controller.stats.silent_corruptions == 0

    def test_multi_bit_scattered_is_due(self):
        controller = make()
        line = random_line(14)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, (1 << 3) | (1 << 100) | (1 << 459))
        result = controller.read(0x40)
        assert result.status is ReadStatus.DETECTED_UE
        assert not result.ok
        assert controller.stats.dues == 1

    def test_due_returns_raw_data_for_postmortem(self):
        controller = make()
        line = random_line(15)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, (1 << 1) | (1 << 2) | (1 << 3))
        result = controller.read(0x40)
        assert result.due
        assert result.data != line  # raw corrupt bits, clearly not usable

    def test_whole_metadata_corruption_is_due(self):
        controller = make()
        controller.write(0x40, random_line(16))
        controller.inject_meta_bits(0x40, (1 << 64) - 1)
        assert controller.read(0x40).due


class TestFigure3bPath:
    def test_mac_verified_even_without_correction(self):
        """Figure 3b: MAC verification happens regardless of ECC-1."""
        controller = make(column_parity=False)
        controller.write(0x40, random_line(17))
        result = controller.read(0x40)
        assert result.costs.mac_checks == 1

    def test_double_bit_due(self):
        controller = make(column_parity=False)
        line = random_line(18)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, (1 << 10) | (1 << 200))
        assert controller.read(0x40).due
