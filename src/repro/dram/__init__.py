"""DRAM timing model at bank granularity (the Ramulator stand-in; see DESIGN.md §4).

Models the Table II memory system: DDR4-3200, 1 channel, 2 ranks of 16
banks, 8KB row buffer, 64-entry read and write queues. Captures the
effects the paper's performance results hinge on: row-buffer hits versus
misses/conflicts, bank-level parallelism, data-bus occupancy, write-drain
interference, and refresh — the terms that translate extra memory
accesses (SGX-/Synergy-style MACs) and extra check latency (SafeGuard)
into slowdown. One :class:`MemoryController` serves both perf engines;
:func:`map_address` is its physical-address map.
"""

from repro.dram.timing import DDR4_3200, DramTiming
from repro.dram.address_map import map_address
from repro.dram.controller import MemoryController

__all__ = [
    "DDR4_3200",
    "DramTiming",
    "map_address",
    "MemoryController",
]
