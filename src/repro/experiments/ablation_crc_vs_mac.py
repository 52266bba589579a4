"""Ablation (Section IV-A): why a CRC cannot replace the MAC.

The paper considers CRC for the detection field and rejects it because
CRCs are linear and keyless: an adversary who can flip chosen bits can
always compute the matching check adjustment. This study stages the same
forgery against a 46-bit CRC and against the 46-bit MAC.
"""

import random

from repro.core.analysis import crc_forgery
from repro.ecc.crc import CRC46
from repro.experiments import UNSCALED
from repro.experiments.reporting import print_banner
from repro.mac.linemac import LineMAC

SCALES = UNSCALED

CLAIMS = {
    "Every chosen-flip forgery of a 46-bit CRC verifies (Section IV-A)":
        lambda forged: forged["crc"] == forged["trials"],
    "No chosen-flip forgery of the 46-bit keyed MAC verifies (Section IV-A)":
        lambda forged: forged["mac"] == 0,
}


def run(trials: int = 200, seed: int = 21) -> dict:
    """The forgeries of each check that verified, over ``trials``."""
    rng = random.Random(seed)
    mac = LineMAC(b"ablation-crc-key", 46)
    forged = {"trials": trials, "crc": 0, "mac": 0}
    for _ in range(trials):
        line = bytes(rng.getrandbits(8) for _ in range(64))
        mask = 0
        for _ in range(rng.randrange(1, 16)):
            mask |= 1 << rng.randrange(512)
        forged_line = (int.from_bytes(line, "little") ^ mask).to_bytes(64, "little")
        if forged_line == line:
            continue
        # CRC: the adversary computes the new check without any secret.
        new_crc, _ = crc_forgery(CRC46, line, mask)
        forged["crc"] += CRC46.compute(forged_line) == new_crc
        # MAC: the adversary's best keyless strategy is linear adjustment
        # of the stored value — it never verifies.
        stored = mac.compute(line, 0x40)
        guess = stored ^ (CRC46.compute_int(mask) & ((1 << 46) - 1))
        forged["mac"] += mac.verify(forged_line, 0x40, guess)
    return forged


def report(forged: dict) -> None:
    print_banner("Section IV-A ablation: CRC vs. MAC as the detection field")
    trials = forged["trials"]
    print(
        f"Chosen-flip forgery success over {trials} trials: "
        f"CRC-46 {forged['crc']}/{trials}, MAC-46 {forged['mac']}/{trials}"
    )
