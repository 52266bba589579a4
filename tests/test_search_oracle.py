"""The correction searches against their one-candidate-at-a-time oracles.

SafeGuard-SECDED's column search, SafeGuard-Chipkill's chip search (both
paths, eager and iterative) and Synergy's chip search build every
candidate from one parity syndrome and MAC the candidates after the first
in one batch. Each test drives a controller and its oracle twin from
``tests/oracles.py`` through the same writes, fault injections and reads,
and after every read requires the same ``ReadResult`` (data, status,
location, ``AccessCosts``), the same event stream (every
``SEARCH_ITERATION`` and ``MAC_CHECK`` in order, via
``AccessLog.subscribe``) and the same search history. The programs mix
scripted phases that reach each path — a remembered candidate tried
first, the eager shortcuts, Chipkill's eager miss falling back to the
other chips, the ping-pong DUE, exhausted searches — with random ones, in
both kernel modes.
"""

import random

import pytest

from repro.core.baselines import SynergyStyleMAC
from repro.core.chipkill import SafeGuardChipkill
from repro.core.config import SafeGuardConfig
from repro.core.pipeline import AccessEventKind
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadStatus
from repro.switches import KERNELS
from tests.oracles import (
    OracleSafeGuardChipkill,
    OracleSafeGuardSECDED,
    OracleSynergyStyleMAC,
)

KEY = b"search-oracle-k!"
MODES = ("fast", "reference")


class Twin:
    """A controller and its oracle, given the same operations."""

    def __init__(self, product, oracle, history):
        self.product, self.oracle = product, oracle
        self.history = history
        self.streams = ([], [])
        for controller, stream in zip(self.pair, self.streams):
            controller.events.subscribe(stream.append)
        self.statuses = []

    @property
    def pair(self):
        return self.product, self.oracle

    def write(self, address, data):
        for controller in self.pair:
            controller.write(address, data)

    def call(self, method, *args):
        """Call ``method`` (a dotted path, e.g. ``chips.reset``) on both."""
        for controller in self.pair:
            target = controller
            for name in method.split("."):
                target = getattr(target, name)
            target(*args)

    def read(self, address):
        for stream in self.streams:
            stream.clear()
        got, want = (controller.read(address) for controller in self.pair)
        assert got == want
        assert got.costs == want.costs
        assert self.streams[0] == self.streams[1]
        assert self.history(self.product) == self.history(self.oracle)
        self.statuses.append(got.status)
        return got

    def finish(self, addresses):
        """A batched read of every line, then the lifetime statistics."""
        for stream in self.streams:
            stream.clear()
        got, want = (controller.access_many(addresses) for controller in self.pair)
        assert got == want
        assert self.streams[0] == self.streams[1]
        assert vars(self.product.stats) == vars(self.oracle.stats)

    def searched(self):
        """SEARCH_ITERATION events in the last read."""
        return sum(e.kind is AccessEventKind.SEARCH_ITERATION for e in self.streams[0])


def _data(rng):
    return bytes(rng.getrandbits(8) for _ in range(64))


def _columns(controller):
    return controller.columns.last, controller.columns.streak


def _chips(controller):
    return controller.chips.known, controller.chips.ping_pong


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", MODES)
def test_column_search_matches_oracle(mode, seed):
    rng = random.Random(seed)
    with KERNELS.override(mode):
        config = SafeGuardConfig(key=KEY)
        twin = Twin(SafeGuardSECDED(config), OracleSafeGuardSECDED(config), _columns)
        addresses = [64 * i for i in range(8)]
        for address in addresses:
            twin.write(address, _data(rng))
        pin_a, pin_b = rng.sample(range(64), 2)

        def pin_fault(address, pin):
            twin.write(address, _data(rng))
            twin.call("inject_pin_failure", address, pin, rng.randrange(1, 256))

        # One pin: found by the search, then remembered first.
        pin_fault(addresses[0], pin_a)
        assert twin.read(addresses[0]).status is ReadStatus.CORRECTED_COLUMN
        assert twin.read(addresses[0]).status is ReadStatus.CORRECTED_COLUMN
        # Two pins: every candidate misses.
        pin_fault(addresses[1], pin_a)
        twin.call("inject_pin_failure", addresses[1], pin_b, rng.randrange(1, 256))
        assert twin.read(addresses[1]).status is ReadStatus.DETECTED_UE
        assert twin.searched() == 64
        # A streak arms the eager shortcut; an eager hit, then a healed pin.
        for address in addresses[2:5]:
            pin_fault(address, pin_a)
            twin.read(address)
        assert twin.product.columns.eager_ready
        assert twin.read(addresses[2]).status is ReadStatus.CORRECTED_COLUMN
        assert twin.searched() == 1
        assert twin.read(addresses[7]).status is ReadStatus.CLEAN
        # Re-armed, then an eager miss on another pin falls through to the
        # full search with the remembered pin first.
        for address in addresses[2:5]:
            twin.read(address)
        assert twin.product.columns.eager_ready
        pin_fault(addresses[5], pin_b)
        assert twin.read(addresses[5]).status is ReadStatus.CORRECTED_COLUMN
        # A single-bit fault: ECC-1, no search.
        twin.write(addresses[6], _data(rng))
        twin.call("inject_data_bits", addresses[6], 1 << rng.randrange(512))
        assert twin.read(addresses[6]).status is ReadStatus.CORRECTED_BIT
        # Random operations over the same lines and pins.
        for _ in range(40):
            address = rng.choice(addresses)
            op = rng.random()
            if op < 0.1:
                twin.write(address, _data(rng))
            elif op < 0.35:
                pin_fault(address, rng.choice((pin_a, pin_b, rng.randrange(64))))
            elif op < 0.45:
                twin.call("inject_data_bits", address, 1 << rng.randrange(512))
            else:
                twin.read(address)
        twin.finish(addresses)


@pytest.mark.parametrize("eager", (True, False))
@pytest.mark.parametrize("mode", MODES)
def test_chip_search_matches_oracle(mode, eager):
    rng = random.Random(int(eager))
    with KERNELS.override(mode):
        config = SafeGuardConfig(key=KEY, eager_correction=eager)
        twin = Twin(SafeGuardChipkill(config), OracleSafeGuardChipkill(config), _chips)
        addresses = [64 * i for i in range(8)]
        for address in addresses:
            twin.write(address, _data(rng))
        chip_a, chip_b = rng.sample(range(16), 2)

        def chip_fault(address, chip):
            twin.write(address, _data(rng))
            twin.call("inject_chip_failure", address, chip, rng.randrange(1, 1 << 32))

        # Every single chip: data chips, the MAC chip and the parity chip.
        for chip in range(18):
            chip_fault(addresses[chip % 8], chip)
            twin.read(addresses[chip % 8])
        # Two chips: every candidate misses.
        twin.call("chips.reset")
        chip_fault(addresses[0], chip_a)
        twin.call("inject_chip_failure", addresses[0], chip_b, rng.randrange(1, 1 << 32))
        assert twin.read(addresses[0]).status is ReadStatus.DETECTED_UE
        # Remembered chip first (the eager shortcut when armed), then a
        # fault-free line under eager correction, then a miss on the known
        # chip that falls back to the other chips.
        for address in addresses[1:4]:
            chip_fault(address, chip_a)
            assert twin.read(address).status is ReadStatus.CORRECTED_CHIP
        twin.write(addresses[4], _data(rng))
        assert twin.read(addresses[4]).status is ReadStatus.CLEAN
        chip_fault(addresses[5], chip_a)
        twin.read(addresses[5])
        chip_fault(addresses[6], chip_b)
        assert twin.read(addresses[6]).status is ReadStatus.CORRECTED_CHIP
        # Interchanging failures until the ping-pong bound trips.
        for i in range(2 * config.ping_pong_limit):
            chip_fault(addresses[i % 8], (chip_a, chip_b)[i % 2])
            twin.read(addresses[i % 8])
        if eager:
            assert ReadStatus.DETECTED_UE in twin.statuses[-2 * config.ping_pong_limit:]
        # A single-bit chip fault goes to a spare line.
        twin.write(addresses[7], _data(rng))
        twin.call("inject_chip_failure", addresses[7], chip_a, 1 << rng.randrange(32))
        twin.read(addresses[7])
        assert twin.read(addresses[7]).status is ReadStatus.SERVICED_BY_SPARE
        # Random operations.
        for _ in range(40):
            address = rng.choice(addresses)
            op = rng.random()
            if op < 0.1:
                twin.write(address, _data(rng))
            elif op < 0.35:
                chip_fault(address, rng.choice((chip_a, chip_b, rng.randrange(18))))
            elif op < 0.45:
                twin.call("inject_data_bits", address, 1 << rng.randrange(512))
            else:
                twin.read(address)
        twin.finish(addresses)


@pytest.mark.parametrize("mode", MODES)
def test_synergy_search_matches_oracle(mode):
    rng = random.Random(5)
    with KERNELS.override(mode):
        config = SafeGuardConfig(key=KEY)
        twin = Twin(SynergyStyleMAC(config), OracleSynergyStyleMAC(config), lambda c: ())
        addresses = [64 * i for i in range(9)]

        def chip_fault(address, chip):
            twin.write(address, _data(rng))
            twin.call("inject_chip_failure", address, chip, rng.randrange(1, 1 << 64))

        # Every chip, data chips 0-7 and the MAC chip 8.
        for chip in range(9):
            chip_fault(addresses[chip], chip)
            assert twin.read(addresses[chip]).status is ReadStatus.CORRECTED_CHIP
            assert twin.searched() == chip + 1
        # Two chips: every candidate misses.
        chip_a, chip_b = rng.sample(range(9), 2)
        chip_fault(addresses[0], chip_a)
        twin.call("inject_chip_failure", addresses[0], chip_b, rng.randrange(1, 1 << 64))
        assert twin.read(addresses[0]).status is ReadStatus.DETECTED_UE
        for _ in range(30):
            address = rng.choice(addresses)
            if rng.random() < 0.4:
                chip_fault(address, rng.randrange(9))
            else:
                twin.read(address)
        twin.finish(addresses)
