"""SPECK-64/128 block cipher, implemented from scratch.

SPECK (Beaulieu et al., NSA 2013) with a 64-bit block and 128-bit key:
27 rounds of an ARX Feistel-like structure on two 32-bit words with
rotation constants alpha=8, beta=3. It plays the role of the paper's
low-latency cipher (QARMA-64): a keyed pseudo-random permutation over
64-bit blocks used to build the per-line MAC. The choice of cipher is
immaterial to the paper's claims (Section VI-D varies only its *latency*);
SPECK is chosen because its full specification is compact enough to
implement and test from scratch.

Test vectors from the original SPECK paper are checked in the test suite.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ecc import kernels

_MASK32 = 0xFFFFFFFF
ROUNDS = 27
ALPHA = 8
BETA = 3


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _round(x: int, y: int, k: int) -> "tuple[int, int]":
    x = (_ror(x, ALPHA) + y) & _MASK32
    x ^= k
    y = _rol(y, BETA) ^ x
    return x, y


def _round_inverse(x: int, y: int, k: int) -> "tuple[int, int]":
    y = _ror(y ^ x, BETA)
    x = _rol((x ^ k) - y & _MASK32, ALPHA)
    return x, y


class Speck64:
    """SPECK-64/128: 64-bit block, 128-bit key, 27 rounds."""

    BLOCK_BITS = 64
    KEY_BYTES = 16

    def __init__(self, key: bytes):
        if len(key) != self.KEY_BYTES:
            raise ValueError("SPECK-64/128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)
        self._packed_keys = kernels.pack_round_keys8(self._round_keys)
        self._batch_kernel = None

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        # Key words k0..k3, little-endian within the key bytes; k0 is the
        # first round key, the rest are generated with the round function
        # itself keyed by the round counter.
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "little") for i in range(4)]
        k = words[0]
        l = words[1:]
        round_keys = [k]
        for i in range(ROUNDS - 1):
            li, k = _round(l[i % 3], k, i)
            l[i % 3] = li
            round_keys.append(k)
        return round_keys

    def encrypt_block(self, block: int) -> int:
        """Encrypt a 64-bit block (low 32 bits = word y, high = word x)."""
        return kernels.speck_encrypt_block(self._round_keys, block)

    def encrypt_blocks8(self, blocks: Sequence[int]) -> List[int]:
        """Encrypt eight 64-bit blocks (one whole-line MAC's worth)."""
        if len(blocks) != 8:
            raise ValueError("expected exactly 8 blocks")
        return kernels.speck_encrypt_lanes8(self._packed_keys, blocks)

    def encrypt_batch(self, blocks):
        """Encrypt a numpy ``uint64`` array of blocks, elementwise."""
        if self._batch_kernel is None:
            self._batch_kernel = kernels.SpeckBatchKernel(self._round_keys)
        return self._batch_kernel.encrypt(blocks)

    def decrypt_block(self, block: int) -> int:
        """Inverse of :meth:`encrypt_block`."""
        y = block & _MASK32
        x = (block >> 32) & _MASK32
        for k in reversed(self._round_keys):
            x, y = _round_inverse(x, y, k)
        return (x << 32) | y
