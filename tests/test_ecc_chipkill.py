"""Tests for the x4 Chipkill codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.chipkill import ChipkillCode, ChipkillStatus

lines = st.integers(0, (1 << 512) - 1)


@pytest.fixture(scope="module")
def code():
    return ChipkillCode()


class TestEncode:
    def test_ecc_budget_is_64_bits(self, code):
        _, checks = code.encode(random.Random(0).getrandbits(512))
        assert checks >> 64 == 0
        assert ChipkillCode.ECC_BITS == 64

    def test_rejects_oversized_line(self, code):
        with pytest.raises(ValueError):
            code.encode(1 << 512)

    @given(lines)
    @settings(max_examples=30)
    def test_clean_decode(self, line):
        code = ChipkillCode()
        _, checks = code.encode(line)
        result = code.decode(line, checks)
        assert result.status is ChipkillStatus.CLEAN
        assert result.data == line


class TestSingleChipCorrection:
    @given(lines, st.integers(0, 15), st.integers(1, (1 << 32) - 1))
    @settings(max_examples=60)
    def test_any_data_chip_failure_corrected(self, line, chip, pattern):
        code = ChipkillCode()
        _, checks = code.encode(line)
        bad_line, bad_checks = code.corrupt_chip(line, checks, chip, pattern)
        result = code.decode(bad_line, bad_checks)
        assert result.status in (ChipkillStatus.CORRECTED, ChipkillStatus.CLEAN)
        assert result.data == line
        if result.status is ChipkillStatus.CORRECTED:
            assert set(result.corrected_chips) == {chip}

    @pytest.mark.parametrize("chip", [16, 17])
    def test_check_chip_failure_harmless(self, code, chip):
        rng = random.Random(5)
        line = rng.getrandbits(512)
        _, checks = code.encode(line)
        bad_line, bad_checks = code.corrupt_chip(
            line, checks, chip, rng.getrandbits(32) | 1
        )
        result = code.decode(bad_line, bad_checks)
        assert result.data == line

    def test_single_bit_is_a_special_case_of_chip_failure(self, code):
        line = random.Random(6).getrandbits(512)
        _, checks = code.encode(line)
        result = code.decode(line ^ (1 << 77), checks)
        assert result.data == line


class TestMultiChip:
    def test_two_chip_corruption_never_silently_clean(self, code):
        rng = random.Random(8)
        outcomes = {"detected": 0, "miscorrected": 0}
        for _ in range(60):
            line = rng.getrandbits(512)
            _, checks = code.encode(line)
            c1, c2 = rng.sample(range(16), 2)
            bl, bc = code.corrupt_chip(line, checks, c1, rng.getrandbits(32) | 1)
            bl, bc = code.corrupt_chip(bl, bc, c2, rng.getrandbits(32) | 1)
            result = code.decode(bl, bc)
            if result.status is ChipkillStatus.DETECTED_UE:
                outcomes["detected"] += 1
            elif result.data != line:
                outcomes["miscorrected"] += 1
            else:
                pytest.fail("two-chip corruption decoded back to original")
        # Both outcomes occur: the miscorrection path is the ECCploit
        # exposure SafeGuard's MAC closes.
        assert outcomes["detected"] > 0

    def test_zero_pattern_is_noop(self, code):
        line = random.Random(9).getrandbits(512)
        _, checks = code.encode(line)
        assert code.corrupt_chip(line, checks, 3, 0) == (line, checks)


class TestSymbolPacking:
    def test_pair_symbols_roundtrip(self, code):
        line = random.Random(10).getrandbits(512)
        for pair in range(4):
            symbols = code._all_pair_symbols(line)[pair]
            assert len(symbols) == 16
            rebuilt = code._set_pair_symbols(line, pair, symbols)
            assert rebuilt == line

    def test_corrupt_chip_touches_only_that_chip(self, code):
        line = random.Random(11).getrandbits(512)
        _, checks = code.encode(line)
        bad_line, bad_checks = code.corrupt_chip(line, checks, 7, 0xFFFFFFFF)
        assert bad_checks == checks
        for pair in range(4):
            before = code._all_pair_symbols(line)[pair]
            after = code._all_pair_symbols(bad_line)[pair]
            for chip in range(16):
                if chip == 7:
                    assert before[chip] != after[chip]
                else:
                    assert before[chip] == after[chip]
