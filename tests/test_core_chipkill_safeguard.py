"""Tests for the SafeGuard-Chipkill controller (Section V)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chipkill import (
    MAC_CHIP,
    N_CORRECTION_CANDIDATES,
    PARITY_CHIP,
    SafeGuardChipkill,
)
from repro.core.config import SafeGuardConfig
from repro.core.types import ReadStatus
from repro.mac.linemac import LineMAC
from repro.switches import KERNELS

KEY = b"chipkill-test-k!"


def make(**kwargs):
    return SafeGuardChipkill(SafeGuardConfig(key=KEY, **kwargs))


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


def count_lines_maced(monkeypatch):
    """A list that grows by the number of lines each MAC computation takes."""
    counted = []
    compute, compute_batch = LineMAC.compute, LineMAC.compute_batch

    def counting_compute(self, line, address):
        counted.append(1)
        return compute(self, line, address)

    def counting_batch(self, lines, addresses):
        # A batch too small for the kernel goes through compute().
        counted.append(len(lines) if self.vectorizes(len(lines)) else 0)
        return compute_batch(self, lines, addresses)

    monkeypatch.setattr(LineMAC, "compute", counting_compute)
    monkeypatch.setattr(LineMAC, "compute_batch", counting_batch)
    return counted


class TestLayout:
    def test_mac_is_32_bits(self):
        assert make().mac_bits == 32

    def test_wider_mac_rejected(self):
        with pytest.raises(ValueError):
            make(mac_bits=33)

    def test_meta_holds_mac_and_parity(self):
        controller = make()
        controller.write(0x40, random_line(1))
        assert controller.chip_contribution(0x40, PARITY_CHIP) >> 32 == 0
        assert controller.chip_contribution(0x40, MAC_CHIP) >> 32 == 0

    def test_write_requires_64_bytes(self):
        with pytest.raises(ValueError):
            make().write(0x40, b"nope")


class TestFaultFree:
    def test_clean_read_one_check(self):
        controller = make(eager_correction=False)
        line = random_line(2)
        controller.write(0x40, line)
        result = controller.read(0x40)
        assert result.status is ReadStatus.CLEAN
        assert result.data == line
        assert result.costs.mac_checks == 1

    def test_eager_with_no_known_chip_behaves_normally(self):
        controller = make(eager_correction=True)
        line = random_line(3)
        controller.write(0x40, line)
        assert controller.read(0x40).status is ReadStatus.CLEAN


class TestChipCorrection:
    @given(st.integers(0, 15), st.integers(1, (1 << 32) - 1))
    @settings(max_examples=50, deadline=None)
    def test_any_data_chip(self, chip, error):
        controller = make()
        line = random_line(4)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, chip, error)
        result = controller.read(0x40)
        assert result.data == line
        assert result.status is ReadStatus.CORRECTED_CHIP
        assert result.corrected_location == chip

    def test_mac_chip_failure_corrected(self):
        controller = make()
        line = random_line(5)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, MAC_CHIP, 0xDEAD0001)
        result = controller.read(0x40)
        assert result.data == line
        assert result.status is ReadStatus.CORRECTED_CHIP
        assert result.corrected_location == MAC_CHIP

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_mac_chip_candidate_reuses_the_precheck_mac(self, mode, monkeypatch):
        """The MAC-chip candidate is the raw line the failed pre-correction
        check just MACed: it bills a check but MACs no line."""
        with KERNELS.override(mode):
            controller = make()
            controller.write(0x40, random_line(5))
            controller.inject_chip_failure(0x40, MAC_CHIP, 0xDEAD0001)
            counted = count_lines_maced(monkeypatch)
            result = controller.read(0x40)
        assert result.corrected_location == MAC_CHIP
        assert result.costs.mac_checks == 1 + N_CORRECTION_CANDIDATES
        assert sum(counted) == result.costs.mac_checks - 1

    def test_parity_chip_failure_invisible_to_reads(self):
        controller = make()
        line = random_line(6)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, PARITY_CHIP, 0xFFFF)
        result = controller.read(0x40)
        assert result.status is ReadStatus.CLEAN
        assert result.data == line

    def test_invalid_chip_rejected(self):
        controller = make()
        controller.write(0x40, random_line(7))
        with pytest.raises(ValueError):
            controller.inject_chip_failure(0x40, 18, 1)


class TestEagerCorrection:
    def test_eager_uses_single_check_after_first_repair(self):
        controller = make(eager_correction=True)
        line = random_line(8)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, 9, 0x12345678)
        first = controller.read(0x40)
        assert first.costs.mac_checks > 1
        controller.write(0x80, line)
        controller.inject_chip_failure(0x80, 9, 0x0BADF00D)
        second = controller.read(0x80)
        assert second.status is ReadStatus.CORRECTED_CHIP
        assert second.costs.mac_checks == 1  # Figure 9b: no pre-check

    def test_eager_noop_when_fault_cleared(self):
        controller = make(eager_correction=True)
        line = random_line(9)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, 9, 0x1)
        controller.read(0x40)
        controller.write(0x80, line)  # healthy line
        result = controller.read(0x80)
        assert result.status is ReadStatus.CLEAN
        assert result.data == line
        assert controller.chips.known is None

    def test_eager_falls_back_to_other_chip(self):
        controller = make(eager_correction=True, spare_lines=0)
        line = random_line(10)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, 9, 0xFFFF)
        controller.read(0x40)
        controller.write(0x80, line)
        controller.inject_chip_failure(0x80, 2, 0xFF00FF)
        result = controller.read(0x80)
        assert result.data == line
        assert result.corrected_location == 2

    def test_non_eager_keeps_double_checking(self):
        """Section V-C: history-based (non-eager) correction checks the
        corrupted raw data first on every access — the MAC-32 exposure."""
        controller = make(eager_correction=False, spare_lines=0)
        line = random_line(11)
        for i in range(3):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_chip_failure(address, 4, 0xAAAA5555)
            result = controller.read(address)
            assert result.data == line
        assert result.costs.mac_checks == 2  # raw check + post-repair check


class TestPingPong:
    def test_interchanging_chips_declared_due(self):
        controller = make(eager_correction=True, ping_pong_limit=3, spare_lines=0)
        line = random_line(12)
        statuses = []
        for i in range(12):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_chip_failure(address, (i % 2) * 7 + 1, 0xF0F0)
            statuses.append(controller.read(address).status)
        assert ReadStatus.DETECTED_UE in statuses

    def test_stable_chip_never_ping_pongs(self):
        controller = make(eager_correction=True, ping_pong_limit=2, spare_lines=0)
        line = random_line(13)
        for i in range(10):
            address = 0x1000 + 64 * i
            controller.write(address, line)
            controller.inject_chip_failure(address, 5, 0x1111)
            assert controller.read(address).status is ReadStatus.CORRECTED_CHIP


class TestSpares:
    def test_single_bit_fault_copied_to_spare(self):
        controller = make(spare_lines=4)
        line = random_line(14)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, 1 << 77)
        first = controller.read(0x40)
        assert first.status is ReadStatus.CORRECTED_CHIP
        second = controller.read(0x40)
        assert second.status is ReadStatus.SERVICED_BY_SPARE
        assert second.data == line
        assert second.costs.mac_checks == 0

    def test_multi_bit_chip_fault_not_spared(self):
        controller = make(spare_lines=4)
        line = random_line(15)
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, 3, 0xFFFFFFFF)
        controller.read(0x40)
        assert controller.read(0x40).status is not ReadStatus.SERVICED_BY_SPARE

    def test_write_invalidates_spare(self):
        controller = make(spare_lines=4)
        line = random_line(16)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, 1 << 10)
        controller.read(0x40)
        new_line = random_line(17)
        controller.write(0x40, new_line)
        assert controller.read(0x40).data == new_line


class TestDetection:
    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_two_chip_corruption_never_silent(self, chip_a, chip_b, seed):
        controller = make()
        rng = random.Random(seed)
        line = bytes(rng.getrandbits(8) for _ in range(64))
        controller.write(0x40, line)
        controller.inject_chip_failure(0x40, chip_a, rng.getrandbits(32) | 1)
        controller.inject_chip_failure(0x40, chip_b, rng.getrandbits(32) | 1)
        result = controller.read(0x40)
        if result.ok:
            assert result.data == line  # the two faults cancelled or one chip
        assert controller.stats.silent_corruptions == 0

    def test_scattered_corruption_due(self):
        controller = make()
        line = random_line(18)
        controller.write(0x40, line)
        controller.inject_data_bits(0x40, (1 << 0) | (1 << 5) | (1 << 130))
        assert controller.read(0x40).due
