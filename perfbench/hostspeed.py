"""Host-speed sampling, so that times taken on a shared host can be compared.

On a shared virtual machine the same code runs at different speeds from
one second to the next: when the host hands the other hyperthread of a
core, or the shared caches and memory, to a neighbour, the benchmark's
passes slow by up to 2.4x, and CPU time slows with them. Which speeds a
whole benchmark run gets is luck, so raw times of the same code spread
by more than a quarter across runs.

A :class:`Speedometer` starts a small process pinned to the benchmark's
CPU (see :func:`pinned`). Every :data:`PERIOD_S` it times :func:`probe`,
a fixed unit of interpreter work and of memory reads scattered over a
structure far larger than the CPU's own caches. The probe belongs to the
benchmark and not to the program, so no change to the program moves it.
A pass's *speed factor* is the mean, over the samples taken during the
pass, of ``REFERENCE_S / probe time``: about 1 when the CPU ran at the
reference speed throughout, about 0.5 when a neighbour slowed it the
whole time. A raw time multiplied by its factor is the time the pass
would have taken at the reference speed.

The sampler takes under 2 % of the CPU, the same on every run.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Time between two probes.
PERIOD_S = 0.025
#: :func:`probe`'s time at the reference speed: its lower 5 % quantile
#: on a 2-vCPU Xeon (family 6, model 143) KVM guest under Python 3.11.7.
#: Only ratios of factors matter, so another host needs no other constant.
REFERENCE_S = 0.00022
#: A pass shorter than this many probe periods borrows the samples
#: nearest to it.
MIN_SAMPLES = 8

_KEYS = tuple(range(256))
_N_ROWS = 1 << 20
#: A fixed scatter of 160 positions over the rows: about 30 % of the
#: probe's time, the share whose speed tracked the passes best.
_SCATTER = tuple((i * 2654435761) % _N_ROWS for i in range(160))

Sample = Tuple[float, float]


def make_rows() -> List[int]:
    """What :func:`probe` reads from: 1M distinct integers, 8 MiB of list
    slots and 32 MiB of int objects. Built in the sampling processes
    only, so the benchmark's own resident memory does not carry it."""
    return list(range(_N_ROWS))


def probe(rows: Sequence[int]) -> float:
    """Seconds one fixed unit of work takes: dictionary updates and
    integer arithmetic (the mix the simulators' Python loops run), then
    reads scattered over ``rows``."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for rep in range(4):
        for key in _KEYS:
            table[key] = table.get(key, 0) + (key * rep & 7)
            total += table[key]
    for row in _SCATTER:
        total += rows[row]
    return time.perf_counter() - start


def _sample(cpu: int, period_s: float) -> None:
    """Probe ``cpu`` every ``period_s`` until a line, or the end of file,
    arrives on standard input; then write the samples to standard output
    as JSON."""
    os.sched_setaffinity(0, {cpu})
    rows = make_rows()
    samples: List[Sample] = []
    due = time.monotonic()
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], max(0.0, due - time.monotonic()))
        if ready:
            break
        now = time.monotonic()
        samples.append((now, probe(rows)))
        due = max(due + period_s, now)
    json.dump(samples, sys.stdout)


class Speedometer:
    """A sampling process pinned to ``cpu``, for the block's duration."""

    def __init__(self, cpu: int, period_s: float = PERIOD_S):
        self.cpu = cpu
        self.period_s = period_s
        self.samples: List[Sample] = []
        self._times: List[float] = []

    def __enter__(self) -> "Speedometer":
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu), str(self.period_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._process.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.communicate()
            raise
        self.samples = [(t, seconds) for t, seconds in json.loads(out or "[]")]
        self._times = [t for t, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Mean ``REFERENCE_S / probe time`` between two
        ``time.monotonic()`` readings."""
        window = _window(self.samples, self._times, start, end)
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(REFERENCE_S / seconds for _, seconds in window)


def _window(
    samples: Sequence[Sample], times: Sequence[float], start: float, end: float
) -> Sequence[Sample]:
    """The samples taken between ``start`` and ``end``, widened to the
    nearest ones on either side while there are fewer than
    :data:`MIN_SAMPLES`."""
    lo = bisect.bisect_left(times, start)
    hi = bisect.bisect_right(times, end)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
        if hi >= len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
            lo -= 1
        else:
            hi += 1
    return samples[lo:hi]


#: The CPUs forked children take; set while :func:`pinned` is active.
_FORKED_CPUS: Optional[List[int]] = None


def _after_fork_in_child() -> None:
    if _FORKED_CPUS is not None:
        os.sched_setaffinity(0, _FORKED_CPUS)


os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def pinned(workers: int) -> Iterator[Tuple[int, List[int]]]:
    """Keep this process on one CPU, and the worker processes it forks on
    the first ``workers`` CPUs, for the block; yields both.

    A client and a server thread of one process hand the interpreter lock
    back and forth on every round trip; on two CPUs each hand-off wakes
    the other CPU through the hypervisor, which costs more, and more
    variably, than the work itself.
    """
    global _FORKED_CPUS
    allowed = sorted(os.sched_getaffinity(0))
    main, spread = allowed[0], allowed[: max(1, workers)]
    _set_all_threads({main})
    _FORKED_CPUS = spread
    try:
        yield main, spread
    finally:
        _FORKED_CPUS = None
        _set_all_threads(set(allowed))


def _set_all_threads(cpus) -> None:
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


if __name__ == "__main__":
    _sample(int(sys.argv[1]), float(sys.argv[2]))
