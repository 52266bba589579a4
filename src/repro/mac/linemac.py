"""The per-line MAC construction (Section III-A / Figure 3b).

"To obtain a fast MAC, we can concurrently encrypt each of the eight
64-bit words of a line with a low-latency encryption circuit ... and
perform an XOR of the eight cipher-texts to obtain the 64-bit MAC. For
shorter MAC, the least-significant bits of MAC-64 are used." The line
address is mixed in ("we concatenate the line address with the key to use
as the effective key"), which we realize XEX-style: each word is whitened
with an address-and-position-dependent tweak block before and after
encryption, so identical data at different addresses (or words swapped
within a line) yield independent MACs.

The MAC key lives in the memory controller and is drawn at boot
(Section IV-A); nothing is stored in DRAM beyond the truncated MAC.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.mac.speck import Speck64
from repro.utils.bits import WORDS_PER_LINE, bytes_to_words

_MASK64 = (1 << 64) - 1

#: Odd constant mixed into the address to derive per-word tweak blocks.
_TWEAK_STRIDE = 0x9E3779B97F4A7C15

#: The smallest batch :meth:`LineMAC.compute_batch` hands to the numpy
#: kernel, whose cost is nearly flat in the batch size (27 SPECK rounds
#: of whole-array operations a call). Measured on a 2-vCPU x86 VM, one
#: address a batch, medians of 30 alternating rounds in each of two runs:
#: the kernel took 0.31-0.36 ms for 8-24 lines and 0.44-0.45 ms for 63,
#: :meth:`LineMAC.compute` 29-36 us a line, so a whole batch breaks even
#: at 10-12 lines. Under Row-Hammer most correction searches try every
#: candidate (on one seed-3 ``playbook-grid`` pass, 199 of 241 Chipkill
#: searches and all 400 column searches), so at 12 the 16 chips after the
#: first take the kernel: that pass's Chipkill searches took 0.127 s
#: against 0.178 s at 24 (medians of 5 alternating passes). Synergy's 8
#: stay per-line.
BATCH_MIN_LINES = 12


class LineMAC:
    """Truncated per-line MAC over 64-byte lines.

    Parameters
    ----------
    key:
        16-byte secret key (boot-time random in a real controller).
    mac_bits:
        Width of the stored MAC: 54 (SafeGuard/SECDED), 46 (SafeGuard with
        column parity), 32 (SafeGuard/Chipkill), or 64 (Synergy-style).
    """

    def __init__(self, key: bytes, mac_bits: int):
        if not 1 <= mac_bits <= 64:
            raise ValueError("mac_bits must be in [1, 64]")
        self._cipher = Speck64(key)
        self.mac_bits = mac_bits
        self._mask = (1 << mac_bits) - 1
        self._tweak_cache: Dict[int, List[int]] = {}
        self._tweak_cache_limit = 4096

    # -- public API -----------------------------------------------------------

    def compute(self, line: bytes, address: int) -> int:
        """MAC of a 64-byte line stored at ``address`` (line-aligned)."""
        if len(line) != 64:
            raise ValueError("line must be exactly 64 bytes")
        return self.compute_words(bytes_to_words(line), address)

    def compute_words(self, words: List[int], address: int) -> int:
        """MAC of a line given as eight 64-bit words."""
        if len(words) != WORDS_PER_LINE:
            raise ValueError(f"expected {WORDS_PER_LINE} words")
        tweaks = self._tweaks(address)
        if self._cipher._fast:
            # Whole-line kernel: all eight tweaked blocks go through one
            # SPECK round loop instead of eight sequential cipher calls.
            blocks = self._cipher.encrypt_blocks8(
                [(word ^ tweak) & _MASK64 for word, tweak in zip(words, tweaks)]
            )
            mac64 = 0
            for ciphertext, tweak in zip(blocks, tweaks):
                mac64 ^= ciphertext ^ tweak
            return mac64 & self._mask
        mac64 = 0
        for word, tweak in zip(words, tweaks):
            mac64 ^= self._cipher.encrypt_block((word ^ tweak) & _MASK64) ^ tweak
        return mac64 & self._mask

    def compute_batch(
        self, lines: Sequence[bytes], addresses: Sequence[int]
    ) -> List[int]:
        """MACs of many ``(line, address)`` pairs.

        Bit-exact with per-pair :meth:`compute`. Each distinct address's
        tweaks are derived once (a correction search passes one address
        for all its candidates). On the fast kernels, batches of at least
        :data:`BATCH_MIN_LINES` lines run every word encryption as one
        vectorized numpy SPECK pass; smaller ones go line by line.
        """
        if len(lines) != len(addresses):
            raise ValueError("lines and addresses must have equal length")
        if not self.vectorizes(len(lines)):
            return [
                self.compute(line, address)
                for line, address in zip(lines, addresses)
            ]
        for line in lines:
            if len(line) != 64:
                raise ValueError("line must be exactly 64 bytes")
        distinct: Dict[int, int] = {}
        rows = [distinct.setdefault(address, len(distinct)) for address in addresses]
        tweaks = np.array([self._tweaks(a) for a in distinct], dtype=np.uint64)[rows]
        words = np.frombuffer(b"".join(lines), dtype="<u8").reshape(
            len(lines), WORDS_PER_LINE
        )
        ciphertexts = self._cipher.encrypt_batch(words ^ tweaks)
        mac64 = np.bitwise_xor.reduce(ciphertexts ^ tweaks, axis=1)
        mask = np.uint64(self._mask)
        return [int(m) for m in mac64 & mask]

    def vectorizes(self, n_lines: int) -> bool:
        """Whether :meth:`compute_batch` runs ``n_lines`` lines through the
        numpy kernel rather than MACing them one by one."""
        return self._cipher._fast and n_lines >= BATCH_MIN_LINES

    def verify(self, line: bytes, address: int, mac: int) -> bool:
        """True iff ``mac`` matches the line's MAC."""
        return self.compute(line, address) == (mac & self._mask)

    @property
    def escape_probability(self) -> float:
        """Chance a uniformly corrupted line passes one MAC check (2^-n)."""
        return 2.0 ** (-self.mac_bits)

    # -- internals --------------------------------------------------------------

    def _tweaks(self, address: int) -> List[int]:
        """Per-word XEX tweaks derived from the line address.

        ``T_i = E_k(address) * alpha^i`` in GF(2^64) would be textbook XEX;
        we use the equally standard variant ``T_i = E_k(address ^ (i * C))``
        with an odd constant C, trading seven extra (cacheable, address-only)
        encryptions for simplicity. Tweaks are memoized per address because
        a memory controller would latch them alongside the MAC pipeline.
        """
        cached = self._tweak_cache.get(address)
        if cached is not None:
            return cached
        blocks = [
            (address ^ (i * _TWEAK_STRIDE)) & _MASK64
            for i in range(WORDS_PER_LINE)
        ]
        if self._cipher._fast:
            tweaks = self._cipher.encrypt_blocks8(blocks)
        else:
            tweaks = [self._cipher.encrypt_block(block) for block in blocks]
        if len(self._tweak_cache) >= self._tweak_cache_limit:
            self._tweak_cache.clear()
        self._tweak_cache[address] = tweaks
        return tweaks
