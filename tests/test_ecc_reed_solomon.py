"""Tests for the generic Reed-Solomon codec."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.gf import GF16, GF256, GF2m
from repro.ecc.reed_solomon import ReedSolomon, RSDecodeFailure
from tests import oracles


class TestConstruction:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ReedSolomon(GF16, 16, 16)
        with pytest.raises(ValueError):
            ReedSolomon(GF16, 16, 0)
        with pytest.raises(ValueError):
            ReedSolomon(GF16, 16, 14)  # n must be < field size for GF16? n=16 == size

    def test_t_computation(self):
        assert ReedSolomon(GF256, 18, 16).t == 1
        assert ReedSolomon(GF256, 20, 16).t == 2


class TestEncode:
    def test_codeword_length(self):
        rs = ReedSolomon(GF256, 18, 16)
        cw = rs.encode(list(range(16)))
        assert len(cw) == 18
        assert cw[:16] == list(range(16))  # systematic

    def test_zero_syndromes_for_codewords(self):
        rs = ReedSolomon(GF256, 18, 16)
        rng = random.Random(2)
        for _ in range(20):
            cw = rs.encode([rng.randrange(256) for _ in range(16)])
            assert not any(rs.syndromes(cw))

    def test_wrong_data_length_rejected(self):
        rs = ReedSolomon(GF256, 18, 16)
        with pytest.raises(ValueError):
            rs.encode([0] * 15)


class TestDecodeT1:
    @pytest.fixture
    def rs(self):
        return ReedSolomon(GF256, 18, 16)

    @given(st.integers(0, 17), st.integers(1, 255), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_single_symbol_corrected(self, position, error, seed):
        rs = ReedSolomon(GF256, 18, 16)
        rng = random.Random(seed)
        data = [rng.randrange(256) for _ in range(16)]
        received = rs.encode(data)
        received[position] ^= error
        result = rs.decode(received)
        assert result.data == tuple(data)
        assert result.corrected_positions == (position,)

    def test_clean_decode_reports_no_corrections(self, rs):
        data = list(range(16))
        result = rs.decode(rs.encode(data))
        assert result.data == tuple(data)
        assert result.n_corrected == 0

    def test_two_errors_fail_or_miscorrect(self, rs):
        """Distance 3: double-symbol errors are beyond correction; the
        decoder either raises (detected) or miscorrects — never returns
        the original silently-claiming-clean."""
        rng = random.Random(7)
        detected = miscorrected = 0
        for _ in range(100):
            data = [rng.randrange(256) for _ in range(16)]
            cw = rs.encode(data)
            p1, p2 = rng.sample(range(18), 2)
            cw[p1] ^= rng.randrange(1, 256)
            cw[p2] ^= rng.randrange(1, 256)
            try:
                result = rs.decode(cw)
            except RSDecodeFailure:
                detected += 1
                continue
            assert result.data != tuple(data)
            miscorrected += 1
        assert detected > 0  # most double errors are flagged

    def test_wrong_length_rejected(self, rs):
        with pytest.raises(ValueError):
            rs.decode([0] * 17)


class TestDecodeT2:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_two_symbols_corrected(self, seed):
        rs = ReedSolomon(GF256, 20, 16)
        rng = random.Random(seed)
        data = [rng.randrange(256) for _ in range(16)]
        cw = rs.encode(data)
        p1, p2 = rng.sample(range(20), 2)
        cw[p1] ^= rng.randrange(1, 256)
        cw[p2] ^= rng.randrange(1, 256)
        result = rs.decode(cw)
        assert result.data == tuple(data)
        assert set(result.corrected_positions) == {p1, p2}

    def test_three_errors_beyond_t2(self):
        rs = ReedSolomon(GF256, 20, 16)
        rng = random.Random(11)
        silent_clean = 0
        for _ in range(60):
            data = [rng.randrange(256) for _ in range(16)]
            cw = rs.encode(data)
            for p in rng.sample(range(20), 3):
                cw[p] ^= rng.randrange(1, 256)
            try:
                result = rs.decode(cw)
            except RSDecodeFailure:
                continue
            if result.data == tuple(data):
                silent_clean += 1
        assert silent_clean == 0  # 3 errors never decode back to the original


class TestGF16Codes:
    def test_rs_15_13_over_gf16(self):
        rs = ReedSolomon(GF16, 15, 13)
        rng = random.Random(3)
        for _ in range(30):
            data = [rng.randrange(16) for _ in range(13)]
            cw = rs.encode(data)
            pos = rng.randrange(15)
            cw[pos] ^= rng.randrange(1, 16)
            assert rs.decode(cw).data == tuple(data)


class TestKernels:
    def test_kernel_cache_follows_the_field_not_its_identity(self):
        """Two GF(16) fields with different moduli, built and freed in
        turn, so a new field may reuse the freed one's ``id``: every
        encode must use its own field's tables (the LFSR oracle)."""
        rng = random.Random(25)
        for round_index in range(200):
            field = GF2m(4, (0b10011, 0b11001)[round_index % 2])
            rs = ReedSolomon(field, 15, 11)
            data = [rng.randrange(16) for _ in range(11)]
            expected = data + oracles.rs_checks(
                field, oracles.rs_generator(field, 4), data
            )
            assert rs.encode(data) == expected, round_index
            del field, rs
            gc.collect()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        # A GF(16) code, Chipkill's RS(18,16) and Bamboo's RS(72,64).
        m_n_k=st.sampled_from([(4, 15, 11), (8, 18, 16), (8, 72, 64)]),
    )
    def test_kernel_matches_positional_oracle(self, seed, m_n_k):
        m, n, k = m_n_k
        field = GF16 if m == 4 else GF256
        rs = ReedSolomon(field, n, k)
        oracle = oracles.positional_rs(ReedSolomon(field, n, k))
        rng = random.Random(seed)
        data = [rng.randrange(field.size) for _ in range(k)]
        codeword = rs.encode(data)
        assert codeword == oracle.encode(data)
        codeword[rng.randrange(n)] ^= rng.randrange(1, field.size)
        assert rs.syndromes(codeword) == oracle.syndromes(codeword)

    def test_wide_field_takes_the_positional_path(self):
        """GF(2^10) symbols do not fit the kernel's 8-bit lanes."""
        field = GF2m(10)
        rs = ReedSolomon(field, 40, 36)
        assert rs._kernel is None
        rng = random.Random(10)
        for _ in range(10):
            data = [rng.randrange(field.size) for _ in range(36)]
            codeword = rs.encode(data)
            assert codeword[36:] == oracles.rs_checks(
                field, oracles.rs_generator(field, 4), data
            )
            codeword[rng.randrange(40)] ^= rng.randrange(1, field.size)
            codeword[rng.randrange(40)] ^= rng.randrange(1, field.size)
            assert rs.decode(codeword).data == tuple(data)
