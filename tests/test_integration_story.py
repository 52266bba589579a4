"""End-to-end integration: the paper's narrative as one pipeline.

Attack -> mitigation breakthrough -> bit-flips in stored lines ->
consumption through the data path -> DUE -> system response. Every stage
uses the real implementations; nothing is mocked.
"""

import random

from repro.core.baselines import ConventionalSECDED
from repro.core.config import SafeGuardConfig
from repro.core.secded import SafeGuardSECDED
from repro.rowhammer.attacks import compile_playbook
from repro.rowhammer.integration import VictimArray
from repro.rowhammer.mitigations import TRRMitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.playbook import scenario
from repro.rowhammer.runner import AttackRunner
from repro.security.dos import DUEMonitor, RegionVerdict

KEY = b"integration-key!"


def test_full_pipeline_breakthrough_to_quarantine():
    # Stage 1: a Half-Double campaign against TRR-protected DRAM.
    rh_config = RowHammerConfig(rh_threshold=600, seed=9, weak_cells_per_row=64,
                                flips_per_crossing=6.0)
    model = DisturbanceModel(rh_config)
    runner = AttackRunner(model, TRRMitigation(4))
    attack = compile_playbook(scenario("half-double"), base_row=64)
    result = runner.run(attack, windows=1, budget=180_000)
    assert result.broke_through, "the mitigation must be broken for the story"

    # Stage 2: the same flips hit two systems' stored bits.
    secded = ConventionalSECDED(SafeGuardConfig(key=KEY))
    safeguard = SafeGuardSECDED(SafeGuardConfig(key=KEY))
    arrays = {}
    for name, controller in (("secded", secded), ("safeguard", safeguard)):
        array = VictimArray(controller, bits_per_row=rh_config.bits_per_row)
        for row in result.final_flip_bits:
            array.populate_row(row)
        array.apply_flips(result.final_flip_bits)
        arrays[name] = array

    # Stage 3: consumption. SafeGuard never serves corrupted data.
    safeguard_outcome = arrays["safeguard"].read_all("safeguard")
    assert safeguard_outcome.detected_ue > 0
    assert safeguard_outcome.silent_corruptions == 0
    secded_outcome = arrays["secded"].read_all("secded")
    assert (
        secded_outcome.silent_corruptions > 0
        or secded_outcome.detected_ue > 0
    )

    # Stage 4: the OS-side response. Repeated DUEs from the victim region
    # escalate to quarantine while the rest of memory stays healthy.
    monitor = DUEMonitor(region_bytes=1 << 20)
    time_hours = 0.0
    verdict = RegionVerdict.HEALTHY
    for repeat in range(40):
        for row in sorted(result.final_flip_bits):
            address = row * rh_config.bits_per_row // 8
            time_hours += 0.002
            verdict = monitor.record_due(address, time_hours)
    assert verdict is RegionVerdict.MALICIOUS
    assert monitor.verdict(1 << 34, time_hours) is RegionVerdict.HEALTHY


def test_spares_absorb_permanent_single_bit_lines():
    """Footnote 2 end-to-end on the Chipkill controller: lines with
    permanent single-bit faults get spared; re-reads cost nothing."""
    from repro.core.chipkill import SafeGuardChipkill

    controller = SafeGuardChipkill(SafeGuardConfig(key=KEY, spare_lines=4))
    rng = random.Random(3)
    lines = {}
    for i in range(4):
        address = 0x1000 + 64 * i
        data = bytes(rng.getrandbits(8) for _ in range(64))
        controller.write(address, data)
        controller.inject_data_bits(address, 1 << rng.randrange(512))
        lines[address] = data
    for address, data in lines.items():
        first = controller.read(address)
        assert first.data == data
    for address, data in lines.items():
        again = controller.read(address)
        assert again.status.value == "serviced_by_spare"
        assert again.data == data
        assert again.costs.mac_checks == 0
