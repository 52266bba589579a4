"""Tests for the baseline organizations (conventional ECC, SGX, Synergy)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    ConventionalChipkill,
    ConventionalSECDED,
    SGXStyleMAC,
    SynergyStyleMAC,
)
from repro.core.config import SafeGuardConfig
from repro.core.types import ReadStatus
from tests.test_core_chipkill_safeguard import count_lines_maced

KEY = b"baseline-test-k!"
CFG = SafeGuardConfig(key=KEY)


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


class TestConventionalSECDED:
    def test_clean(self):
        c = ConventionalSECDED(CFG)
        line = random_line(1)
        c.write(0x40, line)
        result = c.read(0x40)
        assert result.status is ReadStatus.CLEAN
        assert result.costs.mac_checks == 0  # no MAC anywhere

    @given(st.integers(0, 511))
    @settings(max_examples=40, deadline=None)
    def test_single_bit_corrected(self, bit):
        c = ConventionalSECDED(CFG)
        line = random_line(2)
        c.write(0x40, line)
        c.inject_data_bits(0x40, 1 << bit)
        result = c.read(0x40)
        assert result.status is ReadStatus.CORRECTED_BIT
        assert result.data == line

    def test_double_bit_same_word_detected(self):
        c = ConventionalSECDED(CFG)
        c.write(0x40, random_line(3))
        c.inject_data_bits(0x40, (1 << 64) | (1 << 100))
        assert c.read(0x40).status is ReadStatus.DETECTED_UE

    def test_one_bit_per_word_all_corrected(self):
        """The column-fault pattern conventional SECDED handles."""
        c = ConventionalSECDED(CFG)
        line = random_line(4)
        c.write(0x40, line)
        mask = 0
        for beat in range(8):
            mask |= 1 << (beat * 64 + 30)
        c.inject_data_bits(0x40, mask)
        result = c.read(0x40)
        assert result.data == line

    def test_multi_bit_word_can_corrupt_silently(self):
        """The RH exposure: >2 flips per word can miscorrect — silent."""
        c = ConventionalSECDED(CFG)
        rng = random.Random(5)
        silent = 0
        for i in range(40):
            address = 64 * (i + 1)
            line = bytes(rng.getrandbits(8) for _ in range(64))
            c.write(address, line)
            mask = 0
            for bit in rng.sample(range(64), 5):
                mask |= 1 << bit
            c.inject_data_bits(address, mask)
            result = c.read(address)
            if result.ok and result.data != line:
                silent += 1
        assert silent > 0
        assert c.stats.silent_corruptions == silent


class TestConventionalChipkill:
    def test_single_chip_corrected(self):
        c = ConventionalChipkill(CFG)
        line = random_line(6)
        c.write(0x40, line)
        c.inject_chip_failure(0x40, 11, 0xDEADBEEF)
        result = c.read(0x40)
        assert result.status is ReadStatus.CORRECTED_CHIP
        assert result.data == line
        assert result.corrected_location == 11

    def test_multi_chip_never_silently_clean(self):
        c = ConventionalChipkill(CFG)
        rng = random.Random(7)
        detected = 0
        for i in range(30):
            address = 64 * (i + 1)
            line = bytes(rng.getrandbits(8) for _ in range(64))
            c.write(address, line)
            for chip in rng.sample(range(16), 3):
                c.inject_chip_failure(address, chip, rng.getrandbits(32) | 1)
            result = c.read(address)
            if result.due:
                detected += 1
            else:
                assert result.data != line  # miscorrection, not magic
        assert detected > 0


class TestSGXStyle:
    def test_extra_access_per_read_and_write(self):
        c = SGXStyleMAC(CFG)
        line = random_line(8)
        c.write(0x40, line)
        result = c.read(0x40)
        assert result.costs.extra_memory_accesses == 1
        assert result.costs.mac_checks == 1
        assert c.READ_EXTRA_ACCESSES == 1 and c.WRITE_EXTRA_ACCESSES == 1

    def test_storage_overhead(self):
        assert SGXStyleMAC.STORAGE_OVERHEAD == 0.125

    def test_detects_multibit_word_corruption(self):
        """Where conventional SECDED goes silent, the MAC catches it."""
        c = SGXStyleMAC(CFG)
        rng = random.Random(9)
        for i in range(30):
            address = 64 * (i + 1)
            line = bytes(rng.getrandbits(8) for _ in range(64))
            c.write(address, line)
            mask = 0
            for bit in rng.sample(range(64), 5):
                mask |= 1 << bit
            c.inject_data_bits(address, mask)
            result = c.read(address)
            assert result.due or result.data == line
        assert c.stats.silent_corruptions == 0

    def test_mac_region_corruption_detected(self):
        c = SGXStyleMAC(CFG)
        line = random_line(10)
        c.write(0x40, line)
        c.inject_mac_bits(0x40, 1 << 5)
        assert c.read(0x40).due


class TestSynergyStyle:
    def test_no_read_overhead_one_write_overhead(self):
        c = SynergyStyleMAC(CFG)
        line = random_line(11)
        c.write(0x40, line)
        result = c.read(0x40)
        assert result.costs.extra_memory_accesses == 0
        assert c.WRITE_EXTRA_ACCESSES == 1

    @given(st.integers(0, 7), st.integers(1, (1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_x8_chip_corrected(self, chip, error):
        c = SynergyStyleMAC(CFG)
        line = random_line(12)
        c.write(0x40, line)
        c.inject_chip_failure(0x40, chip, error)
        result = c.read(0x40)
        assert result.status is ReadStatus.CORRECTED_CHIP
        assert result.data == line

    def test_mac_chip_failure_corrected(self):
        c = SynergyStyleMAC(CFG)
        line = random_line(13)
        c.write(0x40, line)
        c.inject_chip_failure(0x40, 8, 0x1234567890ABCDEF)
        result = c.read(0x40)
        assert result.data == line

    # One kernel path; the parameter keeps the test id.
    @pytest.mark.parametrize("mode", ["fast"])
    def test_mac_chip_candidate_reuses_the_precheck_mac(self, mode, monkeypatch):
        """The MAC chip is the last candidate and its line is the raw line
        the failed pre-correction check MACed: a billed check, no MAC."""
        c = SynergyStyleMAC(CFG)
        c.write(0x40, random_line(13))
        c.inject_chip_failure(0x40, 8, 0x1234567890ABCDEF)
        counted = count_lines_maced(monkeypatch)
        result = c.read(0x40)
        assert result.corrected_location == 8
        assert result.costs.mac_checks == 1 + 9
        assert sum(counted) == result.costs.mac_checks - 1

    def test_two_chip_corruption_due(self):
        c = SynergyStyleMAC(CFG)
        line = random_line(14)
        c.write(0x40, line)
        c.inject_chip_failure(0x40, 1, 0xFF)
        c.inject_chip_failure(0x40, 5, 0xFF00)
        assert c.read(0x40).due

    def test_invalid_chip_rejected(self):
        c = SynergyStyleMAC(CFG)
        c.write(0x40, random_line(15))
        with pytest.raises(ValueError):
            c.inject_chip_failure(0x40, 9, 1)
