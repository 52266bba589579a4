"""Tests for the concrete SECDED instances (word code, line code)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.hamming import DecodeStatus
from repro.ecc.secded import SECDED72, LineECC1, WordSECDEDLine

lines = st.integers(0, (1 << 512) - 1)


class TestSECDED72:
    def test_dimensions(self):
        code = SECDED72()
        assert code.CODE_BITS == 72
        assert code.ECC_BITS == 8

    @given(st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_roundtrip(self, word):
        code = SECDED72()
        assert code.decode(code.encode(word)).data == word


class TestWordSECDEDLine:
    @pytest.fixture
    def code(self):
        return WordSECDEDLine()

    def test_ecc_is_64_bits(self, code):
        _, ecc = code.encode(0)
        assert ecc >> 64 == 0

    @given(lines)
    @settings(max_examples=30)
    def test_clean_roundtrip(self, line):
        code = WordSECDEDLine()
        _, ecc = code.encode(line)
        result = code.decode(line, ecc)
        assert result.status is DecodeStatus.CLEAN
        assert result.data == line

    @given(lines, st.integers(0, 511))
    @settings(max_examples=50)
    def test_single_data_bit_corrected(self, line, bit):
        code = WordSECDEDLine()
        _, ecc = code.encode(line)
        result = code.decode(line ^ (1 << bit), ecc)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == line

    @given(lines, st.integers(0, 63))
    @settings(max_examples=30)
    def test_single_ecc_bit_corrected(self, line, bit):
        code = WordSECDEDLine()
        _, ecc = code.encode(line)
        result = code.decode(line, ecc ^ (1 << bit))
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == line

    def test_one_flip_per_word_all_corrected(self, code):
        """The vertical column-fault pattern: 1 bit in each word is fully
        correctable at word granularity (the SECDED advantage SafeGuard's
        column parity restores)."""
        rng = random.Random(4)
        line = rng.getrandbits(512)
        _, ecc = code.encode(line)
        pin = 13
        corrupted = line
        for beat in range(8):
            corrupted ^= 1 << (beat * 64 + pin)
        result = code.decode(corrupted, ecc)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == line

    def test_two_flips_in_one_word_detected(self, code):
        rng = random.Random(5)
        line = rng.getrandbits(512)
        _, ecc = code.encode(line)
        result = code.decode(line ^ (1 << 100) ^ (1 << 101), ecc)
        assert result.status is DecodeStatus.DETECTED_UE

    def test_word_statuses_reported_per_word(self, code):
        line = random.Random(6).getrandbits(512)
        _, ecc = code.encode(line)
        result = code.decode(line ^ (1 << (3 * 64 + 7)), ecc)
        assert result.word_statuses[3] is DecodeStatus.CORRECTED
        assert all(
            s is DecodeStatus.CLEAN for i, s in enumerate(result.word_statuses) if i != 3
        )


class TestLineECC1:
    def test_ten_check_bits_for_safeguard_payloads(self):
        assert LineECC1(512 + 54).check_bits == 10  # Figure 3b layout
        assert LineECC1(512 + 46 + 8).check_bits == 10  # Figure 5 layout

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            LineECC1(1 << 11)

    @given(st.integers(0, (1 << 566) - 1), st.integers(0, 565))
    @settings(max_examples=50)
    def test_single_payload_bit_corrected(self, payload, bit):
        code = LineECC1(566)
        checks = code.encode(payload)
        assert checks >> code.check_bits == 0
        clean = code.correct(payload, checks)
        assert clean.status is DecodeStatus.CLEAN
        assert clean.data == payload
        result = code.correct(payload ^ (1 << bit), checks)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == payload

    @given(st.integers(0, (1 << 566) - 1), st.integers(0, 9))
    @settings(max_examples=30)
    def test_single_check_bit_tolerated(self, payload, bit):
        code = LineECC1(566)
        checks = code.encode(payload)
        result = code.correct(payload, checks ^ (1 << bit))
        assert result.data == payload

    def test_double_error_miscorrects_distance3(self):
        """ECC-1 is distance-3: two flips miscorrect — which is why
        SafeGuard re-checks the MAC after every ECC-1 correction."""
        code = LineECC1(566)
        payload = random.Random(8).getrandbits(566)
        checks = code.encode(payload)
        result = code.correct(payload ^ (1 << 5) ^ (1 << 99), checks)
        assert result.data != payload
