"""Section VII: the security discussion, made executable.

Four sub-experiments corresponding to Sections VII-B through VII-E:

- **DoS (VII-B)**: a persistent attacker spamming DUEs is attributable —
  the DUE monitor escalates its region to ``malicious`` while naturally
  failing regions stay ``healthy``.
- **Replay (VII-C)**: same-address replay of an old (data, MAC) pair
  verifies (the accepted residual risk); relocation and splicing are
  detected; mounting the replay via remote Row-Hammer needs an
  astronomically unlikely exact flip pattern.
- **Timing channels (VII-D)**: the ECC-correction timing oracle exists
  under SafeGuard too, but escalating flips with it ends in a DUE rather
  than an escape (contrast with ECCploit vs. plain SECDED); RAMBleed's
  confidentiality leak survives integrity protection and falls to
  TME-style encryption.
- **MAC collisions (VII-E)**: covered by
  :mod:`repro.experiments.sec7e_mac_escape`.
"""

from __future__ import annotations

from typing import Optional

import random
from dataclasses import dataclass

from repro.core import registry
from repro.core.types import ReadStatus
from repro.experiments import UNSCALED
from repro.experiments.reporting import format_table, print_banner
from repro.rowhammer.eccploit import ECCploitAttack
from repro.security.dos import DUEMonitor, RegionVerdict
from repro.security.rambleed import RAMBleedExperiment, TMEEncryptedMemory
from repro.security.replay import ReplayAttack, rowhammer_replay_feasibility


SCALES = UNSCALED

CLAIMS = {
    "A persistent DUE spammer is attributed as malicious while a natural "
    "DUE region stays healthy (Section VII-B)":
        lambda r: r.dos_attacker_verdict is RegionVerdict.MALICIOUS
        and r.dos_background_verdict is RegionVerdict.HEALTHY,
    "Same-address replay verifies; relocation and splicing are detected "
    "(Section VII-C)":
        lambda r: r.replay_same_address
        and r.replay_relocation_detected
        and r.replay_splice_detected,
    "A Row-Hammer-mounted replay needs over 10^30 refresh windows "
    "(Section VII-C)":
        lambda r: r.replay_log10_windows > 30,
    "ECCploit silently corrupts SECDED but ends in a DUE under SafeGuard "
    "(Section VII-D)":
        lambda r: r.eccploit_secded_silent
        and r.eccploit_safeguard_status is ReadStatus.DETECTED_UE,
    "RAMBleed reads plain memory (accuracy > 0.8) but only guesses under "
    "TME-style encryption (0.5 +/- 0.15) (Section VII-D)":
        lambda r: r.rambleed_plain_accuracy > 0.8
        and abs(r.rambleed_tme_accuracy - 0.5) < 0.15,
}


@dataclass
class SecurityReport:
    dos_attacker_verdict: RegionVerdict
    dos_background_verdict: RegionVerdict
    replay_same_address: bool
    replay_relocation_detected: bool
    replay_splice_detected: bool
    replay_log10_windows: float
    eccploit_secded_silent: bool
    eccploit_safeguard_status: ReadStatus
    rambleed_plain_accuracy: float
    rambleed_tme_accuracy: float


def run(seed: int = 7) -> SecurityReport:
    key = b"sec7-security-k!"
    rng = random.Random(seed)

    # VII-B: DoS attribution.
    monitor = DUEMonitor()
    attacker_verdict = RegionVerdict.HEALTHY
    for i in range(200):
        attacker_verdict = monitor.record_due(0x100000, time_hours=i * 0.005)
    background_verdict = monitor.record_due(0x40000000, time_hours=1.0)

    # VII-C: replay.
    replay = ReplayAttack(registry.create("safeguard-secded", key=key)).run()
    log10_windows = rowhammer_replay_feasibility(bits_to_restore=16)

    # VII-D: timing channels.
    eccploit_secded = ECCploitAttack(
        registry.create("secded", key=key)
    ).run(n_flips=3)
    eccploit_safeguard = ECCploitAttack(
        registry.create("safeguard-secded", key=key)
    ).run(n_flips=3)
    secret = bytes(rng.getrandbits(8) for _ in range(32))
    plain = RAMBleedExperiment(seed=seed).run(secret)
    encrypted = RAMBleedExperiment(seed=seed).run(
        secret, encryption=TMEEncryptedMemory(key)
    )

    return SecurityReport(
        dos_attacker_verdict=attacker_verdict,
        dos_background_verdict=background_verdict,
        replay_same_address=replay.same_address_verifies,
        replay_relocation_detected=replay.relocation_detected,
        replay_splice_detected=replay.splice_detected,
        replay_log10_windows=log10_windows,
        eccploit_secded_silent=eccploit_secded.silent_corruption,
        eccploit_safeguard_status=eccploit_safeguard.final_status,
        rambleed_plain_accuracy=plain.accuracy,
        rambleed_tme_accuracy=encrypted.accuracy,
    )


def report(r: Optional[SecurityReport] = None) -> str:
    r = r or run()
    print_banner("Section VII: security discussion (measured)")
    rows = [
        ("VII-B DoS: persistent DUE spam region", r.dos_attacker_verdict.value),
        ("VII-B DoS: one-off natural DUE region", r.dos_background_verdict.value),
        ("VII-C replay at same address verifies", r.replay_same_address),
        ("VII-C relocation detected (address tweak)", r.replay_relocation_detected),
        ("VII-C data/MAC splice detected", r.replay_splice_detected),
        (
            "VII-C RH-mounted replay expectation",
            f"10^{r.replay_log10_windows:.0f} refresh windows",
        ),
        ("VII-D ECCploit vs SECDED: silent corruption", r.eccploit_secded_silent),
        ("VII-D ECCploit vs SafeGuard", r.eccploit_safeguard_status.value),
        ("VII-D RAMBleed accuracy, plain memory", f"{r.rambleed_plain_accuracy:.2f}"),
        ("VII-D RAMBleed accuracy, TME-encrypted", f"{r.rambleed_tme_accuracy:.2f}"),
    ]
    table = format_table(["Scenario", "Outcome"], rows)
    print(table)
    return table
