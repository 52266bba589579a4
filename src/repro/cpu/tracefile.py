"""Trace-file I/O: record and replay memory-access traces.

The paper drives its simulator with Pin-captured SPEC traces; this module
lets users do the analogue — capture a trace once (from the synthetic
generator, from another simulator, or converted from a real Pin/DynamoRIO
log) and replay it deterministically through the system model.

Format (text, one op per line, ``#`` comments allowed)::

    #repro-trace v1
    <nonmem_before> <R|W> <address-hex> [S]

``S`` marks a serializing load (dependent consumers stall); no other
trailing token is accepted. Gaps and addresses are non-negative. Files
may be gzip-compressed (``.gz`` suffix).
"""

from __future__ import annotations

import gzip
from typing import Iterable, Iterator

from repro.cpu.trace import MemOp

MAGIC = "#repro-trace v1"


def _open(path: str, mode: str):
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_trace(path: str, ops: Iterable[MemOp]) -> int:
    """Write ops to a trace file; returns the number written."""
    count = 0
    with _open(path, "w") as handle:
        handle.write(MAGIC + "\n")
        for op in ops:
            kind = "W" if op.is_write else "R"
            suffix = " S" if op.serializing else ""
            handle.write(f"{op.nonmem_before} {kind} {op.address:x}{suffix}\n")
            count += 1
    return count


def read_trace(path: str) -> Iterator[MemOp]:
    """Yield the ops of a trace file."""
    with _open(path, "r") as handle:
        first = handle.readline().strip()
        if first != MAGIC:
            raise ValueError(f"{path}: not a repro trace (missing {MAGIC!r})")
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if (
                len(parts) not in (3, 4)
                or parts[1] not in ("R", "W")
                or parts[3:] not in ([], ["S"])
            ):
                raise ValueError(f"{path}:{line_no}: malformed op {line!r}")
            try:
                gap, address = int(parts[0]), int(parts[2], 16)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: malformed op {line!r}") from None
            if gap < 0 or address < 0:
                raise ValueError(
                    f"{path}:{line_no}: negative gap or address in {line!r}"
                )
            yield MemOp(
                nonmem_before=gap,
                is_write=parts[1] == "W",
                address=address,
                serializing=len(parts) == 4,
            )


class TraceFileSource:
    """A per-core trace source backed by a file.

    Drop-in replacement for :class:`~repro.cpu.trace.TraceGenerator` in
    :class:`~repro.cpu.system.System`: ``ops(n)`` replays the file until
    ``n`` instructions are covered (or the file ends); replayed traces
    carry no working-set metadata, so the priming hooks return nothing.
    """

    def __init__(self, path: str):
        self.path = path

    def ops(self, n_instructions: int) -> Iterator[MemOp]:
        remaining = n_instructions
        for op in read_trace(self.path):
            if remaining <= 0:
                return
            remaining -= op.nonmem_before + 1
            yield op

    def warm_region_addresses(self) -> Iterator[int]:
        return iter(())

    def steady_state_addresses(self, n_lines: int) -> Iterator[int]:
        return iter(())


def record_workload(
    path: str, profile, core: int, seed: int, n_instructions: int
) -> int:
    """Capture a synthetic workload's trace to a file."""
    from repro.cpu.trace import TraceGenerator

    generator = TraceGenerator(profile, core, seed)
    return write_trace(path, generator.ops(n_instructions))
