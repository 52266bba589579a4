"""ROB-limited out-of-order core timing model (Table II core).

A deliberately simple abstraction of a 6-wide, 224-entry-ROB OoO core
(DESIGN.md §4): instructions dispatch at up to 6 per cycle; loads that
miss occupy the instruction window until their data returns, so
memory-level parallelism is bounded by the ROB (and by the memory
controller's read queue); *serializing* loads additionally stall dispatch
until completion, modelling dependent pointer chases. This captures the
two mechanisms that turn added memory latency into slowdown — window
stalls and dependence stalls — which is what Figures 7/11/12/13 measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional, Tuple

from repro.cpu.trace import MemOp


@dataclass(frozen=True)
class CoreConfig:
    width: int = 6  #: fetch/retire width
    rob_entries: int = 224
    #: Average cycles per non-memory instruction (captures front-end and
    #: dependence stalls a full OoO model would produce; 1/width is the
    #: ideal bound).
    base_cpi: float = 0.45


class Core:
    """One core consuming a :class:`~repro.cpu.trace.MemOp` stream."""

    def __init__(self, core_id: int, ops: Iterator[MemOp], config: Optional[CoreConfig] = None):
        self.core_id = core_id
        self.config = config or CoreConfig()
        self._base_cpi = self.config.base_cpi  # hot-loop hoist
        self._next = ops.__next__
        self._ops = ops
        self.time = 0.0  #: local CPU cycle count
        self.instructions = 0
        self.finished = False
        #: In-flight loads as (instruction_index, completion_time).
        self._outstanding: Deque[Tuple[int, float]] = deque()

    # -- stepping ------------------------------------------------------------------

    def next_op(self) -> Optional[MemOp]:
        """Fetch the next memory op, advancing time over the non-mem gap."""
        try:
            op = self._next()
        except StopIteration:
            self.finished = True
            return None
        # Non-memory instructions flow through at the workload's base CPI.
        self.time += op.nonmem_before * self._base_cpi
        self.instructions += op.nonmem_before + 1
        self._drain_window()
        return op

    def complete_op(self, op: MemOp, latency_cycles: float) -> None:
        """Account a memory op whose access took ``latency_cycles``."""
        self.time += self._base_cpi  # dispatch slot
        completion = self.time + latency_cycles
        if op.is_write:
            # Stores retire via the store buffer; no window occupancy here.
            return
        if op.serializing:
            # Dependent consumers stall until the data arrives.
            self.time = completion
            return
        self._outstanding.append((self.instructions, completion))

    # -- internals -----------------------------------------------------------------

    def _drain_window(self) -> None:
        """Enforce the ROB bound on in-flight loads."""
        out = self._outstanding
        while out and out[0][1] <= self.time:
            out.popleft()
        while out and self.instructions - out[0][0] >= self.config.rob_entries:
            # The window is full up to the oldest incomplete load: dispatch
            # cannot proceed until it completes and retires.
            self.time = max(self.time, out[0][1])
            out.popleft()
            while out and out[0][1] <= self.time:
                out.popleft()
