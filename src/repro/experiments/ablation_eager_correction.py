"""Ablation (Sections V-C/V-D): iterative vs. eager correction.

Measures, on the real SafeGuard-Chipkill data path under a permanent chip
failure, how many MAC verifications touch *corrupted* data per read — the
quantity that determines the MAC-32 escape accumulation. Eager correction
reduces it to zero faulty-data checks in steady state (one check, on
repaired data), an 18x escape-time improvement per Section VII-E.
"""

from repro.core.config import SafeGuardConfig
from repro.core.registry import create
from repro.core.types import ReadStatus
from repro.experiments import UNSCALED
from repro.experiments.reporting import print_banner

SCALES = UNSCALED

CLAIMS = {
    "Every read behind a failed chip is a chip correction (Section V-C)":
        lambda modes: not any(mode["uncorrected"] for mode in modes.values()),
    "Every read behind a failed chip returns the written line (Section V-C)":
        lambda modes: not any(mode["corrupted"] for mode in modes.values()),
    "Iterative correction needs ~2 MAC checks per read (Section V-D): at least 1.9":
        lambda modes: modes["iterative"]["checks_per_read"] >= 1.9,
    "Eager correction needs about one MAC check per read (Section V-D): below 1.2":
        lambda modes: modes["eager"]["checks_per_read"] < 1.2,
}


def _read_behind_failed_chip(eager: bool, reads: int) -> dict:
    """MAC checks per read, and the reads that were no chip correction or
    did not return the written line."""
    controller = create(
        "safeguard-chipkill",
        SafeGuardConfig(key=b"ablation-eager-k", eager_correction=eager, spare_lines=0),
    )
    line = b"\x5A" * 64
    checks = uncorrected = corrupted = 0
    for i in range(reads):
        address = 0x1000 + 64 * i
        controller.write(address, line)
        controller.inject_chip_failure(address, 6, 0xFFFF0000)
        result = controller.read(address)
        checks += result.costs.mac_checks
        uncorrected += result.status is not ReadStatus.CORRECTED_CHIP
        corrupted += result.data != line
    return {"checks_per_read": checks / reads, "uncorrected": uncorrected, "corrupted": corrupted}


def run(reads: int = 64) -> dict:
    modes = ("iterative", "eager")
    return {mode: _read_behind_failed_chip(mode == "eager", reads) for mode in modes}


def report(modes: dict) -> None:
    print_banner("Sections V-C/V-D ablation: iterative vs. eager correction")
    print(
        "MAC checks/read under permanent chip failure: "
        f"iterative(history)={modes['iterative']['checks_per_read']:.2f}, "
        f"eager={modes['eager']['checks_per_read']:.2f}"
    )
