"""Tests for activation-rate constraints (tRRD/tFAW) and derived budgets."""


from repro.dram.address_map import map_address
from repro.dram.controller import MemoryController
from repro.dram.timing import (
    DDR4_3200,
    max_activations_per_refresh_window,
)


class TestTimingDerivations:
    def test_trc(self):
        assert DDR4_3200.tRC == DDR4_3200.tRAS + DDR4_3200.tRP == 74

    def test_activation_budget_matches_paper_scale(self):
        """~1.4M activations per 64ms window at DDR4-3200 (the hammer
        budget the Row-Hammer literature quotes)."""
        budget = max_activations_per_refresh_window()
        assert 1_200_000 < budget < 1_500_000

    def test_budget_scales_with_window(self):
        full = max_activations_per_refresh_window(window_ms=64.0)
        half = max_activations_per_refresh_window(window_ms=32.0)
        assert abs(half * 2 - full) <= 2


def _acts_after_reads(mc, addresses):
    """Each read's ACT instant: the newest entry of its rank's window."""
    acts = []
    for address in addresses:
        mc.read(address, 0.0)
        acts.append(mc._rank_acts[map_address(address)[0]][-1])
    return acts


class TestActivationPacing:
    def test_trrd_spaces_back_to_back_acts(self):
        mc = MemoryController()
        # Two row misses in different banks, same rank, same instant.
        a = mc.read(0, 0.0)
        b = mc.read(1 << 13, 0.0)  # next bank, same rank (row region)
        # The second ACT cannot start before tRRD after the first.
        assert b >= a - DDR4_3200.tBL + DDR4_3200.tRRD

    def test_tfaw_limits_burst_of_activations(self):
        mc = MemoryController()
        # Row misses to eight banks of rank 0, all at the same instant.
        times = _acts_after_reads(mc, [bank << 13 for bank in range(8)])
        # The 5th ACT waits for the tFAW window of the 1st.
        assert times[4] >= times[0] + DDR4_3200.tFAW
        assert times[7] >= times[3] + DDR4_3200.tFAW

    def test_row_hits_not_paced(self):
        mc = MemoryController()
        now = mc.read(0, 0.0)
        acts = list(mc._rank_acts[0])
        for i in range(1, 6):
            now = mc.read(i * 64, now)
        assert mc.row_hits == 5
        assert mc._rank_acts[0] == acts  # no ACT issued, none paced

    def test_ranks_paced_independently(self):
        mc = MemoryController()
        _acts_after_reads(mc, [bank << 13 for bank in range(5)])  # rank 0
        # Rank 1 is unaffected by rank 0's tFAW window.
        assert _acts_after_reads(mc, [16 << 13]) == [0.0]  # rank 1, bank 0

    def test_pacing_measured_from_actual_act_issue_time(self):
        """A conflicting bank issues its ACT only after tRAS + tRP; the
        rank's tRRD window must be measured from that actual instant, not
        from the (much earlier) admitted time."""
        t = DDR4_3200
        mc = MemoryController()
        c0 = map_address(0)
        conflict_addr = next(
            a
            for a in range(64, 1 << 26, 64)
            if (lambda c: c[:2] == c0[:2] and c[2] != c0[2])(map_address(a))
        )
        mc.read(0, 0.0)  # miss: ACT at 0
        mc.read(conflict_addr, 0.0)  # conflict: PRE waits for tRAS, ACT after tRP
        acts = mc._rank_acts[c0[0]]
        assert acts[0] == 0.0
        # The conflicting ACT issued after precharge completed, not at the
        # admitted tRRD floor the old model recorded.
        assert acts[1] == t.tRAS + t.tRP
        # A third ACT in another bank of the same rank is paced from it.
        other_bank = next(
            a
            for a in range(64, 1 << 26, 64)
            if (lambda c: c[0] == c0[0] and c[1] != c0[1])(map_address(a))
        )
        mc.read(other_bank, 0.0)
        assert mc._rank_acts[c0[0]][-1] == t.tRAS + t.tRP + t.tRRD
