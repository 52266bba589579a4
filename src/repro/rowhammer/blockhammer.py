"""BlockHammer-style throttling mitigation (Section VIII, [47]).

BlockHammer takes a different tack from refresh-based mitigations: it
*rate-limits* activations. Counting Bloom filters track per-row activation
counts within a refresh window; rows whose estimated count crosses a
blacklist threshold get their further activations delayed so that no row
can exceed the RH-Threshold within the window — a guarantee that holds
regardless of the access pattern (Half-Double's distance-2 refreshes
never happen because there are no victim refreshes at all).

The paper's two criticisms are both measurable here:

- the delay can be enormous (at low thresholds a blacklisted row's access
  can take >125us — ``worst_case_delay_ns``), and
- the guarantee is still *threshold-relative*: a module whose real
  threshold is below the design point flips before the blacklist fires
  (the same Table I drift that breaks every design-point scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.rowhammer.mitigations import Mitigation
from repro.utils.rng import derive_seed

#: tRC in nanoseconds: minimum spacing of activations to one bank.
TRC_NS = 46.0
#: Refresh window in nanoseconds.
WINDOW_NS = 64_000_000.0


class CountingBloomFilter:
    """A counting Bloom filter over row numbers.

    ``estimate`` returns the minimum counter across the k hash positions —
    an overestimate of the true insertion count (never an underestimate),
    which is the conservative direction for a blacklist.
    """

    def __init__(self, n_counters: int = 1024, n_hashes: int = 4, seed: int = 0):
        if n_counters < 1 or n_hashes < 1:
            raise ValueError("need at least one counter and one hash")
        self.n_counters = n_counters
        self.n_hashes = n_hashes
        self._counters = [0] * n_counters
        self._salts = [derive_seed(seed, 0xB10, i) for i in range(n_hashes)]
        #: Row -> its counter positions. The salts never change, so the
        #: memo outlives :meth:`clear`; the bank's rows bound its size.
        self._memo: Dict[int, List[int]] = {}

    def _positions(self, row: int) -> List[int]:
        positions = self._memo.get(row)
        if positions is None:
            positions = [
                (derive_seed(salt, row) % self.n_counters) for salt in self._salts
            ]
            self._memo[row] = positions
        return positions

    def insert(self, row: int) -> None:
        for pos in self._positions(row):
            self._counters[pos] += 1

    def estimate(self, row: int) -> int:
        return min(self._counters[pos] for pos in self._positions(row))

    def clear(self) -> None:
        self._counters = [0] * self.n_counters


@dataclass
class ThrottleDecision:
    allowed: bool
    delay_ns: float = 0.0


class BlockHammerMitigation(Mitigation):
    """Bloom-filter blacklisting with activation throttling.

    ``design_threshold`` sizes the limits: a row is blacklisted (paced)
    after ``design_threshold / 4`` estimated activations in the current
    window and hard-capped just below ``design_threshold / 2`` — the cap
    is half the threshold because a double-sided victim accumulates
    disturbance from *both* neighbours, so each must individually stay
    below half for the sum to stay below the threshold.
    """

    name = "blockhammer"

    def __init__(
        self,
        design_threshold: int = 4800,
        n_counters: int = 1024,
        n_hashes: int = 4,
        seed: int = 0,
    ):
        self.design_threshold = design_threshold
        self.blacklist_count = max(1, design_threshold // 4)
        self.activation_cap = max(1, design_threshold // 2 - 1)
        self._filter = CountingBloomFilter(n_counters, n_hashes, seed)
        self.blocked = 0
        self.total = 0

    # -- throttling interface (consumed by AttackRunner) -------------------------

    def permits(self, row: int) -> ThrottleDecision:
        """Decide whether this activation proceeds now.

        Blacklisted rows are allowed only at the throttled pace: the
        remaining activation quota spread over the remaining window. In
        the runner's discrete model a quota-exhausted row is simply
        blocked for the rest of the window.
        """
        self.total += 1
        estimate = self._filter.estimate(row)
        if estimate >= self.activation_cap:
            self.blocked += 1
            return ThrottleDecision(False, self.worst_case_delay_ns())
        self._filter.insert(row)
        if estimate >= self.blacklist_count:
            # Blacklisted but within quota: delayed, not denied.
            return ThrottleDecision(True, self.throttle_delay_ns())
        return ThrottleDecision(True, 0.0)

    def on_activate(self, row: int) -> List[int]:
        return []  # BlockHammer never issues victim refreshes

    def on_window_end(self) -> None:
        self._filter.clear()

    # -- the latency criticism (Section VIII) ---------------------------------------

    def throttle_delay_ns(self) -> float:
        """Pacing delay for a blacklisted row's activations.

        A blacklisted row has ``design_threshold/2`` quota left for (in
        the worst case) the whole window: its activations must be spaced
        ``WINDOW_NS / (design_threshold/2)`` apart.
        """
        return WINDOW_NS / max(1, self.design_threshold // 2)

    def worst_case_delay_ns(self) -> float:
        """Delay when the quota is exhausted: wait for the next window."""
        return self.throttle_delay_ns()

    @property
    def blocked_fraction(self) -> float:
        return self.blocked / self.total if self.total else 0.0
