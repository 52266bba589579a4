"""The table-driven kernels are bit-exact with the positional oracles.

The kernels in :mod:`repro.ecc.kernels` are the codecs' one path; the
straightforward positional implementations they replaced live in
``tests/oracles.py``. This suite pins the equivalence three ways:

1. **Hypothesis properties** — for every accelerated primitive (Hamming
   SEC/SECDED, word-SECDED line, ECC-1, Chipkill RS, column parity, the
   pin transposes, SPECK, LineMAC), a product instance and its oracle
   twin (the same codec with its kernels swapped for positional loops)
   must agree on random inputs, including corrupted ones.
2. **Batch-vs-scalar** — every ``*_batch`` API equals the scalar loop,
   and ``MemoryController.access_many`` produces the same results, stats
   and events as per-address ``read``.
3. **Golden parity** — the pre-refactor op corpus replays bit-exactly
   on the kernels.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SafeGuardConfig
from repro.core.registry import create, names
from repro.ecc.chipkill import ChipkillCode
from repro.ecc.hamming import HammingSEC, HammingSECDED
from repro.ecc.parity import N_DATA_PINS, column_parity, recover_pin
from repro.ecc.secded import LineECC1, WordSECDEDLine
from repro.mac.linemac import BATCH_MIN_LINES, LineMAC
from repro.mac.speck import Speck64
from repro.utils.bits import extract_pin_symbols, pin_symbols_to_int
from tests import oracles

KEY = b"equivalence-key!"


def _positional_word_secded():
    code = WordSECDEDLine()
    oracles.positional_hamming(code._word_code._code)
    return code


def _positional_ecc1(payload_bits):
    code = LineECC1(payload_bits)
    oracles.positional_hamming(code._code)
    return code


FAST = {
    "sec64": HammingSEC(64),
    "sec566": HammingSEC(566),
    "secded64": HammingSECDED(64),
    "word_secded": WordSECDEDLine(),
    "ecc1": LineECC1(566),
    "chipkill": ChipkillCode(),
    "mac": LineMAC(KEY, 46),
    "speck": Speck64(KEY),
}
REF = {
    "sec64": oracles.positional_hamming(HammingSEC(64)),
    "sec566": oracles.positional_hamming(HammingSEC(566)),
    "secded64": oracles.positional_hamming(HammingSECDED(64)),
    "word_secded": _positional_word_secded(),
    "ecc1": _positional_ecc1(566),
    "chipkill": oracles.OracleChipkillCode(),
    "mac": oracles.OracleLineMAC(KEY, 46),
    "speck": oracles.OracleSpeck64(KEY),
}

COMMON = settings(max_examples=150, deadline=None)


def _same_decode(fast_result, ref_result):
    assert fast_result.status == ref_result.status
    assert fast_result.data == ref_result.data
    assert getattr(fast_result, "corrected_bit", None) == getattr(
        ref_result, "corrected_bit", None
    )


# -- Hamming SEC / SECDED --------------------------------------------------------


@COMMON
@given(
    data=st.integers(0, (1 << 64) - 1),
    flips=st.lists(st.integers(0, FAST["sec64"].n - 1), max_size=2),
)
def test_hamming_sec64_equivalent(data, flips):
    fast, ref = FAST["sec64"], REF["sec64"]
    codeword = fast.encode(data)
    assert codeword == ref.encode(data)
    for bit in flips:
        codeword ^= 1 << bit
    _same_decode(fast.decode(codeword), ref.decode(codeword))


@COMMON
@given(data=st.integers(0, (1 << 566) - 1), flip=st.integers(-1, FAST["sec566"].n - 1))
def test_hamming_sec566_equivalent(data, flip):
    fast, ref = FAST["sec566"], REF["sec566"]
    codeword = fast.encode(data)
    assert codeword == ref.encode(data)
    if flip >= 0:
        codeword ^= 1 << flip
    _same_decode(fast.decode(codeword), ref.decode(codeword))


@COMMON
@given(
    data=st.integers(0, (1 << 64) - 1),
    # n_total includes the overall parity bit above the inner SEC code.
    flips=st.lists(st.integers(0, FAST["secded64"].n_total - 1), max_size=3),
)
def test_hamming_secded64_equivalent(data, flips):
    fast, ref = FAST["secded64"], REF["secded64"]
    codeword = fast.encode(data)
    assert codeword == ref.encode(data)
    for bit in flips:
        codeword ^= 1 << bit
    _same_decode(fast.decode(codeword), ref.decode(codeword))


@COMMON
@given(
    line=st.integers(0, (1 << 512) - 1),
    flips=st.lists(st.integers(0, 575), max_size=3),
)
def test_word_secded_line_equivalent(line, flips):
    fast, ref = FAST["word_secded"], REF["word_secded"]
    encoded = fast.encode(line)
    assert encoded == ref.encode(line)
    _, ecc = encoded
    for bit in flips:
        if bit < 512:
            line ^= 1 << bit
        else:
            ecc ^= 1 << (bit - 512)
    fast_result, ref_result = fast.decode(line, ecc), ref.decode(line, ecc)
    assert fast_result == ref_result


@COMMON
@given(
    payload=st.integers(0, (1 << 566) - 1),
    flip=st.integers(-1, 565),
    check_flip=st.integers(-1, 9),
)
def test_line_ecc1_equivalent(payload, flip, check_flip):
    fast, ref = FAST["ecc1"], REF["ecc1"]
    checks = fast.encode(payload)
    assert checks == ref.encode(payload)
    if flip >= 0:
        payload ^= 1 << flip
    if check_flip >= 0:
        checks ^= 1 << check_flip
    _same_decode(fast.correct(payload, checks), ref.correct(payload, checks))


# -- Chipkill RS -----------------------------------------------------------------


@COMMON
@given(
    line=st.integers(0, (1 << 512) - 1),
    chip=st.integers(0, 17),
    pattern=st.integers(0, (1 << 32) - 1),
)
def test_chipkill_equivalent(line, chip, pattern):
    fast, ref = FAST["chipkill"], REF["chipkill"]
    encoded = fast.encode(line)
    assert encoded == ref.encode(line)
    _, checks = encoded
    line, checks = fast.corrupt_chip(line, checks, chip, pattern)
    assert fast.decode(line, checks) == ref.decode(line, checks)


# -- column parity ---------------------------------------------------------------


@COMMON
@given(line=st.integers(0, (1 << 512) - 1), pin=st.integers(0, N_DATA_PINS - 1))
def test_column_parity_equivalent(line, pin):
    parity = column_parity(line)
    assert parity == oracles.column_parity(line)
    assert recover_pin(line, pin, parity) == oracles.rebuild_pin(line, pin, parity)


@COMMON
@given(
    line=st.integers(0, (1 << 512) - 1),
    pin=st.integers(0, N_DATA_PINS - 1),
    symbol_error=st.integers(1, 255),
)
def test_pin_recovery_equivalent_under_damage(line, pin, symbol_error):
    """A damaged pin is reconstructed identically by both paths."""
    parity = oracles.column_parity(line)
    damaged = line
    for beat in range(8):
        if (symbol_error >> beat) & 1:
            damaged ^= 1 << (beat * N_DATA_PINS + pin)
    recovered = recover_pin(damaged, pin, parity)
    assert recovered == oracles.rebuild_pin(damaged, pin, parity) == line


@COMMON
@given(
    line=st.integers(0, (1 << 512) - 1),
    n_pins=st.sampled_from([8, 16, 64, 72]),
)
def test_pin_transpose_equivalent(line, n_pins):
    """The numpy beat transpose, both ways, on every burst-8 pin count a
    multiple of 8 (the shapes it covers)."""
    line &= (1 << (8 * n_pins)) - 1
    symbols = extract_pin_symbols(line, n_pins)
    assert symbols == oracles.pin_symbols(line, n_pins)
    assert pin_symbols_to_int(symbols) == oracles.pin_symbols_to_int(symbols) == line


# -- SPECK / LineMAC -------------------------------------------------------------


@COMMON
@given(block=st.integers(0, (1 << 64) - 1))
def test_speck_block_equivalent(block):
    fast, ref = FAST["speck"], REF["speck"]
    assert fast.encrypt_block(block) == ref.encrypt_block(block)
    # decrypt uses the shared reference rounds; round-trip pins the pair
    assert fast.decrypt_block(fast.encrypt_block(block)) == block


def test_speck_official_test_vector():
    """SPECK-64/128 vector from the original paper, kernel and oracle."""
    key = bytes.fromhex("00010203" "08090a0b" "10111213" "18191a1b")
    plaintext = (0x3B726574 << 32) | 0x7475432D
    expected = (0x8C6FA548 << 32) | 0x454E028B
    assert Speck64(key).encrypt_block(plaintext) == expected
    assert oracles.OracleSpeck64(key).encrypt_block(plaintext) == expected


@COMMON
@given(blocks=st.lists(st.integers(0, (1 << 64) - 1), min_size=8, max_size=8))
def test_speck_lanes8_equivalent(blocks):
    fast, ref = FAST["speck"], REF["speck"]
    assert fast.encrypt_blocks8(blocks) == ref.encrypt_blocks8(blocks)


@COMMON
@given(
    line=st.binary(min_size=64, max_size=64),
    address=st.integers(0, (1 << 48) - 1),
)
def test_linemac_equivalent(line, address):
    assert FAST["mac"].compute(line, address) == REF["mac"].compute(line, address)


# -- batch-vs-scalar -------------------------------------------------------------


@pytest.fixture(scope="module")
def rng():
    return random.Random(0xE0)


def test_word_secded_batch_matches_scalar(rng):
    code = FAST["word_secded"]
    lines = [rng.getrandbits(512) for _ in range(16)]
    assert code.encode_batch(lines) == [code.encode(line) for line in lines]
    pairs = code.encode_batch(lines)
    assert code.decode_batch(pairs) == [code.decode(li, ecc) for li, ecc in pairs]


def test_line_ecc1_batch_matches_scalar(rng):
    code = FAST["ecc1"]
    payloads = [rng.getrandbits(566) for _ in range(16)]
    assert code.encode_batch(payloads) == [code.encode(p) for p in payloads]
    pairs = [(p, code.encode(p)) for p in payloads]
    assert code.decode_batch(pairs) == [code.correct(p, c) for p, c in pairs]


def test_chipkill_batch_matches_scalar(rng):
    code = FAST["chipkill"]
    lines = [rng.getrandbits(512) for _ in range(16)]
    assert code.encode_batch(lines) == [code.encode(line) for line in lines]
    pairs = code.encode_batch(lines)
    assert code.decode_batch(pairs) == [code.decode(li, c) for li, c in pairs]


def test_linemac_batch_matches_scalar(rng):
    # Sizes on both sides of the per-line/numpy crossover; addresses all
    # distinct, all one (a correction search's batch) and a few repeated.
    for mac in (FAST["mac"], REF["mac"]):
        for n in (1, BATCH_MIN_LINES - 1, BATCH_MIN_LINES, 33):
            lines = [rng.getrandbits(512).to_bytes(64, "little") for _ in range(n)]
            for addresses in (
                [64 * i for i in range(n)],
                [0x1C0] * n,
                [64 * rng.randrange(3) for _ in range(n)],
            ):
                assert mac.compute_batch(lines, addresses) == [
                    mac.compute(line, a) for line, a in zip(lines, addresses)
                ]


# -- access_many vs scalar read --------------------------------------------------


def _exercise(controller, batched: bool, seed: int):
    """A mixed clean/faulty program; returns (results, stats vars)."""
    rng = random.Random(seed)
    addresses = [64 * i for i in range(32)]
    for a in addresses:
        controller.write(a, bytes(rng.getrandbits(8) for _ in range(64)))
    for a in addresses[::3]:
        controller.inject_data_bits(a, 1 << rng.randrange(512))
    for a in addresses[1::5]:
        mask = 0
        for _ in range(3):
            mask |= 1 << rng.randrange(512)
        controller.inject_data_bits(a, mask)
    if hasattr(controller, "inject_pin_failure"):
        controller.inject_pin_failure(addresses[4], 17, 0xB5)
    if hasattr(controller, "inject_mac_bits"):
        controller.inject_mac_bits(addresses[7], 0x3)
    sequence = addresses * 2  # repeats exercise column/chip histories
    if batched:
        results = controller.access_many(sequence)
    else:
        results = [controller.read(a) for a in sequence]
    return results, vars(controller.stats)


@pytest.mark.parametrize("scheme_name", names())
def test_access_many_matches_scalar_reads(scheme_name):
    scalar_results, scalar_stats = _exercise(create(scheme_name, key=KEY), False, 7)
    batch_results, batch_stats = _exercise(create(scheme_name, key=KEY), True, 7)
    assert batch_results == scalar_results
    assert batch_stats == scalar_stats


def test_access_many_matches_scalar_reads_iterative_chipkill():
    """The non-eager Chipkill config takes the pristine shortcut; pin it too."""
    def build():
        from repro.core.chipkill import SafeGuardChipkill

        return SafeGuardChipkill(SafeGuardConfig(key=KEY, eager_correction=False))

    scalar_results, scalar_stats = _exercise(build(), False, 11)
    batch_results, batch_stats = _exercise(build(), True, 11)
    assert batch_results == scalar_results
    assert batch_stats == scalar_stats


def test_access_many_emits_identical_events():
    """The batch fast path bills MAC checks through the same event stream."""
    def run(batched):
        controller = create("safeguard-secded", key=KEY)
        seen = []
        controller.events.subscribe(seen.append)
        addresses = [64 * i for i in range(8)]
        for a in addresses:
            controller.write(a, bytes(range(64)))
        controller.inject_data_bits(addresses[2], 1 << 5)
        if batched:
            controller.access_many(addresses)
        else:
            for a in addresses:
                controller.read(a)
        return seen

    assert run(True) == run(False)


# -- golden parity on the kernels --------------------------------------------------

_CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_parity.json")

with open(_CORPUS_PATH) as _fh:
    _CORPUS = json.load(_fh)

_CORPUS_KEY = bytes.fromhex(_CORPUS["key"])


@pytest.mark.parametrize("scheme_name", sorted(_CORPUS["schemes"]))
def test_golden_parity_replays_under_fast_kernels(scheme_name):
    entry = _CORPUS["schemes"][scheme_name]
    controller = create(scheme_name, key=_CORPUS_KEY)
    reads = iter(entry["reads"])
    for op in entry["ops"]:
        name, args = op[0], op[1:]
        if name == "write":
            controller.write(args[0], bytes.fromhex(args[1]))
            continue
        if name != "read":
            if name in ("inject_data_bits", "inject_meta_bits", "inject_mac_bits"):
                getattr(controller, name)(args[0], int(args[1], 16))
            else:
                getattr(controller, name)(*args)
            continue
        result = controller.read(args[0])
        expect = next(reads)
        context = f"{scheme_name} op {op}"
        assert result.status.value == expect["status"], context
        assert result.data.hex() == expect["data"], context
        assert result.costs.mac_checks == expect["mac_checks"], context
        assert result.costs.latency_cycles == expect["latency_cycles"], context
    for field_name, expected in entry["stats"].items():
        assert getattr(controller.stats, field_name) == expected
