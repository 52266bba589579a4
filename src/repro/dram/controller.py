"""Transaction-level DDR4 memory controller (Table II, open-page).

Services read/write requests against per-bank open-row state, tracking
the shared data bus, rank-level tRRD/tFAW activation pacing, read-queue
occupancy, posted writes with high/low-watermark draining, and periodic
all-bank refresh. Requests are served in arrival order with bank/bus
busy-time bookkeeping — a deliberate simplification of FR-FCFS
reordering (see DESIGN.md §4): row-buffer locality, bank-level
parallelism and bus saturation are modeled exactly, out-of-order
request lifting is not.

State lives on plain dicts, lists and floats rather than per-bank
objects: both perf engines drive this controller once per DRAM request,
and per-request method-call/dataclass overhead would dominate the fast
engine's timing pass.

All times are in memory-controller cycles (floats); callers convert to
CPU cycles via :data:`repro.dram.timing.CPU_CYCLES_PER_MEM_CYCLE`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.dram.address_map import packed_coordinate
from repro.dram.timing import DDR4_3200

# DDR4-3200 timings as plain module floats (the hot paths read them as
# globals, not through a timing object).
_tRRD = float(DDR4_3200.tRRD)
_tFAW = float(DDR4_3200.tFAW)
_tRP = float(DDR4_3200.tRP)
_tRCD = float(DDR4_3200.tRCD)
_tCCD = float(DDR4_3200.tCCD)
_tRAS = float(DDR4_3200.tRAS)
_tBL = float(DDR4_3200.tBL)
_tRFC = float(DDR4_3200.tRFC)
_tREFI = float(DDR4_3200.tREFI)
_HIT_CYCLES = float(DDR4_3200.row_hit_cycles)
_MISS_CYCLES = float(DDR4_3200.row_miss_cycles)
_CONFLICT_CYCLES = float(DDR4_3200.row_conflict_cycles)


class MemoryController:
    """Single-channel DDR4-3200 controller: 2 ranks x 16 banks.

    ``read`` and ``write`` take the request's issue time and return the
    data-burst end time and the write's accept time. The counters
    (``reads``, ``writes``, ``row_hits``, ``row_misses``,
    ``row_conflicts``, ``total_read_latency``, ``refreshes``,
    ``write_drains``) accumulate on the controller itself.

    ``coords`` is the address -> packed-coordinates memo; the mapping is
    pure, so callers may share one dict across controllers (the fast
    engine shares one across a workload's organizations).
    """

    READ_QUEUE_ENTRIES = 64
    WRITE_QUEUE_ENTRIES = 64
    WRITE_DRAIN_HIGH = 48
    WRITE_DRAIN_LOW = 16

    __slots__ = (
        "reads",
        "writes",
        "row_hits",
        "row_misses",
        "row_conflicts",
        "total_read_latency",
        "refreshes",
        "write_drains",
        "_banks",
        "_bus_free_at",
        "_rank_acts",
        "_inflight_reads",
        "_write_queue",
        "_write_inflight",
        "_write_draining",
        "_next_refresh",
        "_coords",
    )

    def __init__(self, coords: Optional[Dict[int, int]] = None) -> None:
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.total_read_latency = 0.0
        self.refreshes = 0
        self.write_drains = 0
        #: bank key (rank << 4 | bank) -> [open_row (None = precharged),
        #: ready_at (earliest next column command), ras_done_at]
        self._banks: Dict[int, list] = {}
        self._bus_free_at = 0.0
        #: Per-rank recent actual ACT issue times (tRRD / tFAW window).
        self._rank_acts: Dict[int, List[float]] = {}
        #: Completion times of outstanding reads (queue occupancy).
        self._inflight_reads: List[float] = []
        #: Posted writes not yet issued to a bank (oldest first).
        self._write_queue: deque = deque()
        #: Issued writes' data-burst completion times; a write occupies
        #: its queue entry until its burst finishes.
        self._write_inflight: List[float] = []
        #: True while a high-watermark drain episode is in progress.
        self._write_draining = False
        self._next_refresh = _tREFI
        #: address -> (row << 5) | (rank << 4) | bank
        self._coords: Dict[int, int] = {} if coords is None else coords

    def read(self, address: int, now: float) -> float:
        """Issue a demand/prefetch read; returns when its data burst ends.

        A read first waits for a free read-queue entry. Completion times
        are strictly increasing (the data bus serializes bursts: each
        ends at least tBL after the previous), so the in-flight queues
        are plain sorted lists — append to add, prefix delete to retire.
        """
        inflight = self._inflight_reads
        retire = 0
        n_inflight = len(inflight)
        while retire < n_inflight and inflight[retire] <= now:
            retire += 1
        if retire:
            del inflight[:retire]
            n_inflight -= retire
        if n_inflight >= self.READ_QUEUE_ENTRIES:
            freed = inflight[0]
            del inflight[0]
            if freed > now:
                now = freed
            while inflight and inflight[0] <= now:
                del inflight[0]
        if now >= self._next_refresh:
            self._refresh(now)
        data_at = self._access(address, now)
        inflight.append(data_at)
        self.reads += 1
        self.total_read_latency += data_at - now
        return data_at

    def write(self, address: int, now: float) -> float:
        """Post a write (writeback); returns the time it was accepted.

        Writes are off the critical path: they park in the posted-write
        queue and cost nothing until the controller drains them. A write
        occupies its queue entry from admission until its data burst to
        DRAM completes. Draining follows the classic watermark policy:

        - occupancy reaching ``WRITE_DRAIN_HIGH`` starts a drain episode
          (counted in ``write_drains``) during which queued and newly
          arriving writes issue immediately, booking their bank access
          and bus burst so subsequent reads observe the busy time;
        - the episode ends once occupancy decays to ``WRITE_DRAIN_LOW``
          (entries free as bursts complete);
        - a full queue (``WRITE_QUEUE_ENTRIES``) backpressures the
          issuer: the returned accept time is pushed past ``now`` to the
          completion that frees an entry, and callers charge that stall.

        Writes still parked when the simulation ends were never drained
        and book no bank/bus cost — the posted-write semantics.
        """
        self.writes += 1
        if now >= self._next_refresh:
            self._refresh(now)
        inflight = self._write_inflight
        retire = 0
        n_inflight = len(inflight)
        while retire < n_inflight and inflight[retire] <= now:
            retire += 1
        if retire:
            del inflight[:retire]
        queue = self._write_queue
        if self._write_draining and len(queue) + len(inflight) <= self.WRITE_DRAIN_LOW:
            self._write_draining = False
        if len(queue) + len(inflight) >= self.WRITE_QUEUE_ENTRIES:
            # Full: issue anything still parked, then stall until the
            # earliest in-flight burst frees an entry.
            while queue:
                inflight.append(self._access(queue.popleft(), now))
            if len(inflight) >= self.WRITE_QUEUE_ENTRIES:
                freed = inflight[0]
                del inflight[0]
                if freed > now:
                    now = freed
                while inflight and inflight[0] <= now:
                    del inflight[0]
        queue.append(address)
        if (
            not self._write_draining
            and len(queue) + len(inflight) >= self.WRITE_DRAIN_HIGH
        ):
            self._write_draining = True
            self.write_drains += 1
        if self._write_draining:
            while queue:
                inflight.append(self._access(queue.popleft(), now))
        return now

    def _access(self, address: int, now: float) -> float:
        """One bank access plus its bus burst; returns the burst end.

        Open-page: a hit on the open row costs a column access, a
        precharged bank an ACT first (miss), another open row a
        precharge after its tRAS window and then an ACT (conflict).
        """
        packed = self._coords.get(address)
        if packed is None:
            packed = packed_coordinate(address)
            self._coords[address] = packed
        key = packed & 31
        rank = key >> 4
        row = packed >> 5
        bank = self._banks.get(key)
        if bank is None:
            bank = [None, 0.0, 0.0]
            self._banks[key] = bank
        open_row = bank[0]
        if open_row != row:
            # This access needs an ACT: honour the rank's tRRD/tFAW pacing.
            acts = self._rank_acts.get(rank)
            if acts:
                paced = acts[-1] + _tRRD
                if paced > now:
                    now = paced
                if len(acts) >= 4:
                    paced = acts[-4] + _tFAW
                    if paced > now:
                        now = paced
        ready = bank[1]
        start = now if now > ready else ready
        if open_row == row:
            self.row_hits += 1
            data_at = start + _HIT_CYCLES
            bank[1] = start + _tCCD
        else:
            if open_row is None:
                self.row_misses += 1
                act_at = start
                data_at = start + _MISS_CYCLES
                bank[0] = row
                bank[2] = start + _tRAS
                bank[1] = start + _tRCD + _tCCD
            else:
                self.row_conflicts += 1
                ras_done = bank[2]
                if ras_done > start:
                    start = ras_done
                # The ACT can only issue once the precharge completes.
                act_at = start + _tRP
                data_at = start + _CONFLICT_CYCLES
                bank[0] = row
                bank[2] = start + _tRP + _tRAS
                bank[1] = start + _tRP + _tRCD + _tCCD
            # Pace the window from the instant the ACT actually issued —
            # a busy/conflicting bank issues later than it was admitted.
            acts = self._rank_acts.get(rank)
            if acts is None:
                self._rank_acts[rank] = [act_at]
            else:
                acts.append(act_at)
                if len(acts) > 4:
                    del acts[: len(acts) - 4]
        # The data burst occupies the shared bus for tBL cycles ending at
        # data_at; push it back if the bus is still busy.
        burst_start = data_at - _tBL
        bus_free = self._bus_free_at
        if bus_free > burst_start:
            burst_start = bus_free
        data_at = burst_start + _tBL
        self._bus_free_at = data_at
        return data_at

    def _refresh(self, now: float) -> None:
        """All-bank refresh at every tREFI point up to ``now``: each bank
        is precharged and unavailable for tRFC from the refresh point."""
        while now >= self._next_refresh:
            at = self._next_refresh
            for bank in self._banks.values():
                bank[0] = None
                ras_done = bank[2]
                floor = (ras_done if ras_done > at else at) + _tRP
                ready = bank[1]
                if floor > ready:
                    ready = floor
                after = at + _tRFC
                bank[1] = after if after > ready else ready
            self.refreshes += 1
            self._next_refresh = at + _tREFI
