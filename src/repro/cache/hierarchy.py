"""The full cache/memory hierarchy glued together.

Routes each core access through L1 -> LLC -> memory controller, applying
the per-organization access-pattern overheads (extra MAC read, extra
parity write, MAC-check tail latency) that differentiate SafeGuard from
SGX-style and Synergy-style MAC organizations. All latencies returned are
in CPU cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.cache.cache import Cache
from repro.cache.prefetcher import StreamPrefetcher
from repro.dram.controller import MemoryController
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE


@dataclass(frozen=True)
class AccessOutcome:
    latency_cpu: float
    level: str  #: 'l1' | 'llc' | 'dram'


class CacheHierarchy:
    """Per-system hierarchy: private L1s, shared inclusive LLC, DRAM."""

    L1_HIT_CYCLES = 2
    LLC_HIT_CYCLES = 18
    STORE_CYCLES = 1  #: stores retire via the store buffer
    #: Metadata-line coalescing: in-flight MAC-line fetches an MSHR
    #: tracks, recent metadata-line writes remembered for merging, and
    #: the write-merge window in memory cycles (~write-queue life).
    META_READ_INFLIGHT = 8
    META_WRITE_RECENT = 32
    META_WRITE_MERGE_WINDOW = 1000.0

    def __init__(
        self,
        n_cores: int,
        organization,
        l1_kb: int = 32,
        llc_mb: int = 4,
        line_bytes: int = 64,
        enable_prefetch: bool = True,
    ):
        self.organization = organization
        self.controller = MemoryController()
        self.line_bytes = line_bytes
        self.l1 = [
            Cache(l1_kb * 1024, 4, line_bytes, name=f"l1d-{i}") for i in range(n_cores)
        ]
        self.llc = Cache(llc_mb * 1024 * 1024, 16, line_bytes, name="llc")
        self.prefetchers = (
            [StreamPrefetcher() for _ in range(n_cores)] if enable_prefetch else None
        )
        self.dram_reads = 0
        self.dram_writes = 0
        #: Dirty L1 victims found absent from the inclusive LLC. The
        #: invariant makes this impossible in normal operation; if an
        #: external actor breaks it, the victim is written back to DRAM
        #: (never silently dropped) and counted here.
        self.inclusion_violations = 0
        # MSHR-style coalescing of in-flight metadata-line fetches and
        # write-queue merging of metadata-line updates: eight data lines
        # share one MAC line, so back-to-back misses on a stream target the
        # same metadata address and any real controller merges them.
        self._meta_read_inflight: "OrderedDict[int, float]" = OrderedDict()
        self._meta_write_recent: "OrderedDict[int, float]" = OrderedDict()
        # Hit-path outcomes carry constant latencies; AccessOutcome is
        # frozen, so the same instances are reused (access() is the hot
        # path and allocation there is measurable).
        self._l1_store = AccessOutcome(self.STORE_CYCLES, "l1")
        self._l1_load = AccessOutcome(self.L1_HIT_CYCLES, "l1")
        self._llc_store = AccessOutcome(self.STORE_CYCLES, "llc")
        self._llc_load = AccessOutcome(self.L1_HIT_CYCLES + self.LLC_HIT_CYCLES, "llc")

    # -- main access path ------------------------------------------------------

    def prime(self, address: int, dirty: bool = False) -> None:
        """Install a line into the LLC without timing side effects.

        Used to pre-populate LLC-resident working sets and bring the LLC
        to steady-state occupancy before measurement (the SimPoint
        cache-warming analogue); ``dirty`` lines produce writebacks when
        later evicted, as a long-running execution's would.
        """
        self.llc.fill(address // self.line_bytes, dirty)

    def access(self, core: int, address: int, is_write: bool, now_cpu: float) -> AccessOutcome:
        """One data access from ``core`` at CPU time ``now_cpu``."""
        line = address // self.line_bytes
        if self.l1[core].lookup(line, is_write):
            return self._l1_store if is_write else self._l1_load

        prefetches = (
            self.prefetchers[core].observe(line) if self.prefetchers else []
        )
        if self.llc.lookup(line, is_write=False):
            self._fill_l1(core, line, is_write, now_cpu)
            if prefetches:
                self._issue_prefetches(prefetches, now_cpu)
            return self._llc_store if is_write else self._llc_load

        # LLC miss: demand access to DRAM. A victim writeback that hits a
        # full posted-write queue backpressures the miss handling; that
        # stall is on the critical path of the triggering access.
        dram_latency_cpu = self._dram_read(line, now_cpu)
        stall_cpu = self._fill_llc(line, now_cpu)
        self._fill_l1(core, line, is_write, now_cpu)
        if prefetches:
            self._issue_prefetches(prefetches, now_cpu)
        if is_write:
            # The allocation read is off the store's critical path.
            return AccessOutcome(self.STORE_CYCLES + stall_cpu, "dram")
        return AccessOutcome(
            self.L1_HIT_CYCLES + self.LLC_HIT_CYCLES + dram_latency_cpu + stall_cpu,
            "dram",
        )

    # -- internals ------------------------------------------------------------------

    def _dram_read(self, line: int, now_cpu: float) -> float:
        """Demand read (+ organization extra read), in CPU cycles."""
        now_mem = now_cpu / CPU_CYCLES_PER_MEM_CYCLE
        ready_mem = self.controller.read(line * self.line_bytes, now_mem)
        self.dram_reads += 1
        org = self.organization
        if org.extra_read_per_read:
            # SGX-style: the MAC line is fetched concurrently with the data
            # line; the check waits for whichever arrives last.
            meta_ready = self._meta_read(
                org.metadata_address(line * self.line_bytes), now_mem
            )
            ready_mem = max(ready_mem, meta_ready)
        latency_cpu = (ready_mem - now_mem) * CPU_CYCLES_PER_MEM_CYCLE
        return latency_cpu + org.read_tail_cpu_cycles

    def _meta_read(self, meta_address: int, now_mem: float) -> float:
        """Fetch a metadata line, coalescing with an in-flight fetch."""
        inflight = self._meta_read_inflight
        completion = inflight.get(meta_address)
        if completion is not None and completion > now_mem:
            return completion  # MSHR hit: ride the outstanding fetch
        completion = self.controller.read(meta_address, now_mem)
        self.dram_reads += 1
        inflight[meta_address] = completion
        inflight.move_to_end(meta_address)
        while len(inflight) > self.META_READ_INFLIGHT:
            inflight.popitem(last=False)
        return completion

    def _dram_write(self, line: int, now_cpu: float) -> float:
        """Post a writeback (+ organization extra write).

        Returns the backpressure stall in CPU cycles: zero unless the
        controller's posted-write queue was full and delayed acceptance.
        """
        now_mem = now_cpu / CPU_CYCLES_PER_MEM_CYCLE
        accepted_mem = self.controller.write(line * self.line_bytes, now_mem)
        self.dram_writes += 1
        org = self.organization
        if org.extra_write_per_writeback:
            meta_address = org.metadata_address(line * self.line_bytes)
            recent = self._meta_write_recent
            last = recent.get(meta_address)
            if last is None or now_mem - last >= self.META_WRITE_MERGE_WINDOW:
                accepted_mem = max(
                    accepted_mem, self.controller.write(meta_address, now_mem)
                )
                self.dram_writes += 1
                recent[meta_address] = now_mem
                recent.move_to_end(meta_address)
                while len(recent) > self.META_WRITE_RECENT:
                    recent.popitem(last=False)
        return (accepted_mem - now_mem) * CPU_CYCLES_PER_MEM_CYCLE

    def _fill_l1(self, core: int, line: int, dirty: bool, now_cpu: float) -> None:
        victim = self.l1[core].fill(line, dirty)
        if victim is not None:
            victim_line, victim_dirty = victim
            if victim_dirty:
                if self.llc.contains(victim_line):
                    self.llc.lookup(victim_line, is_write=True)
                else:
                    # Under the inclusive-LLC invariant this is impossible
                    # (every LLC eviction back-invalidates the L1s). If it
                    # happens anyway, the dirty data must not vanish:
                    # write it back to DRAM and flag the violation.
                    self.inclusion_violations += 1
                    self._dram_write(victim_line, now_cpu)

    def _fill_llc(self, line: int, now_cpu: float) -> float:
        """Install a line into the LLC; returns writeback stall CPU cycles."""
        victim = self.llc.fill(line)
        if victim is not None:
            victim_line, victim_dirty = victim
            # Inclusive LLC: back-invalidate the L1 copies.
            for l1 in self.l1:
                flag = l1.invalidate(victim_line)
                if flag:
                    victim_dirty = True
            if victim_dirty:
                return self._dram_write(victim_line, now_cpu)
        return 0.0

    def _issue_prefetches(self, lines: List[int], now_cpu: float) -> None:
        for line in lines:
            if self.llc.contains(line):
                continue
            # Prefetches ride the same verified read path (the MAC check is
            # off the critical path for them but the accesses are real).
            now_mem = now_cpu / CPU_CYCLES_PER_MEM_CYCLE
            self.controller.read(line * self.line_bytes, now_mem)
            self.dram_reads += 1
            if self.organization.extra_read_per_read:
                self._meta_read(
                    self.organization.metadata_address(line * self.line_bytes), now_mem
                )
            self._fill_llc(line, now_cpu)
