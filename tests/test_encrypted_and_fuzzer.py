"""Tests for the TME+SafeGuard composition and the pattern fuzzer."""

import random

import pytest

from repro.core.chipkill import SafeGuardChipkill
from repro.core.config import SafeGuardConfig
from repro.core.encrypted import EncryptedController
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadStatus
from repro.rowhammer.fuzzer import PatternFuzzer, PatternGenome
from repro.rowhammer.mitigations import NoMitigation, TRRMitigation
from tests.test_playbook import genome_playbook

MAC_KEY = b"mac-key-16bytes!"
ENC_KEY = b"enc-key-16bytes!"


def make(controller_cls=SafeGuardSECDED):
    return EncryptedController(controller_cls(SafeGuardConfig(key=MAC_KEY)), ENC_KEY)


class TestEncryptedController:
    def test_plaintext_roundtrip(self):
        ctrl = make()
        data = b"page-table-entry".ljust(64, b"\x00")
        ctrl.write(0x40, data)
        result = ctrl.read(0x40)
        assert result.status is ReadStatus.CLEAN
        assert result.data == data

    def test_dram_holds_ciphertext(self):
        ctrl = make()
        data = b"\x00" * 64  # highly structured plaintext
        ctrl.write(0x40, data)
        stored = ctrl.stored_ciphertext(0x40)
        assert stored != data
        # Ciphertext of all-zero plaintext is far from all-zero.
        assert sum(bin(b).count("1") for b in stored) > 150

    def test_safeguard_guarantees_survive_composition(self):
        ctrl = make()
        data = b"\x5A" * 64
        ctrl.write(0x40, data)
        ctrl.inject_data_bits(0x40, 1 << 99)
        result = ctrl.read(0x40)
        assert result.status is ReadStatus.CORRECTED_BIT
        assert result.data == data

        ctrl.write(0x40, data)
        ctrl.inject_pin_failure(0x40, 17, 0b1011)
        result = ctrl.read(0x40)
        assert result.status is ReadStatus.CORRECTED_COLUMN
        assert result.data == data

        ctrl.write(0x40, data)
        ctrl.inject_data_bits(0x40, (1 << 1) | (1 << 101) | (1 << 301))
        assert ctrl.read(0x40).due

    def test_due_returns_undecrypted_bits(self):
        ctrl = make()
        ctrl.write(0x40, b"\x11" * 64)
        ctrl.inject_data_bits(0x40, 0b111)
        result = ctrl.read(0x40)
        assert result.due

    def test_composes_with_chipkill(self):
        ctrl = make(SafeGuardChipkill)
        data = b"\x33" * 64
        ctrl.write(0x40, data)
        ctrl.inject_chip_failure(0x40, 7, 0xDEADBEEF)
        result = ctrl.read(0x40)
        assert result.status is ReadStatus.CORRECTED_CHIP
        assert result.data == data

    def test_stats_passthrough(self):
        ctrl = make()
        ctrl.write(0x40, b"\x00" * 64)
        ctrl.read(0x40)
        assert ctrl.stats.reads == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            make().no_such_method()

    def test_rambleed_sensed_bits_decorrelate(self):
        """What a RAMBleed attacker senses is the ciphertext: flipping
        the plaintext secret flips ~half of the stored bits, not the
        matching ones."""
        ctrl = make()
        secret_a = b"\x00" * 64
        secret_b = b"\x00" * 63 + b"\x01"  # one plaintext bit differs
        ctrl.write(0x40, secret_a)
        stored_a = ctrl.stored_ciphertext(0x40)
        ctrl.write(0x40, secret_b)
        stored_b = ctrl.stored_ciphertext(0x40)
        diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(stored_a, stored_b))
        assert diff_bits > 10  # avalanche within the affected block


class TestPatternGenome:
    def test_attack_generation(self):
        genome = PatternGenome(aggressors=((-1, 2), (1, 1)), flush_rows=(), flush_burst=0)
        attack = genome_playbook(genome)
        rows = list(attack.activations(9, ref_period=100))
        assert set(rows) <= {63, 65}
        assert rows.count(63) > rows.count(65)  # weight 2 vs 1

    def test_flush_synchronized_with_ref(self):
        genome = PatternGenome(aggressors=((-1, 1),), flush_rows=(20, 27), flush_burst=2)
        attack = genome_playbook(genome)
        rows = list(attack.activations(20, ref_period=10))
        # Each 10-slot chunk ends with 2 flush activations.
        assert rows[8] in (84, 91) and rows[9] in (84, 91)


class TestPatternFuzzer:
    def test_breaks_unprotected_immediately(self):
        fuzzer = PatternFuzzer(NoMitigation, seed=1, budget=60_000)
        result = fuzzer.search(5)
        assert result.found_breakthrough
        assert result.trials_to_first_break is not None

    @pytest.mark.slow
    def test_discovers_trr_breaker(self):
        """Blacksmith's result in miniature: random pattern search finds a
        tracker-flushing pattern without being told about TRRespass."""
        fuzzer = PatternFuzzer(lambda: TRRMitigation(4), seed=5, budget=60_000)
        result = fuzzer.search(20)
        assert result.found_breakthrough
        assert result.best_genome is not None

    def test_history_recorded(self):
        fuzzer = PatternFuzzer(NoMitigation, seed=2, budget=30_000)
        result = fuzzer.search(4)
        assert len(result.history) == 4
        assert max(result.history) == result.best_flips

    def test_deterministic_given_seed(self):
        a = PatternFuzzer(NoMitigation, seed=9, budget=30_000).search(4)
        b = PatternFuzzer(NoMitigation, seed=9, budget=30_000).search(4)
        assert a.history == b.history
