"""Row-Hammer access-pattern generators (Sections II-C, II-E).

Each attack is an :class:`AttackPattern`: a named generator of aggressor
row activations for one refresh window, plus the victim rows it intends
to flip. Patterns:

- ``single_sided`` — hammer one aggressor; victims are its neighbours.
- ``double_sided`` — hammer both neighbours of a victim (the classic
  strongest pattern: the victim accumulates disturbance from both sides).
- ``many_sided`` — TRRespass [8]: hammer the intended aggressor pair
  *plus* many dummy rows, overflowing capacity-limited TRR tables so the
  real aggressors escape mitigation.
- ``half_double`` — Half-Double [9]: hammer rows at distance 2 from the
  victim; the mitigation's own victim-refreshes of the distance-1 rows
  act as activations that hammer the distance-1 rows' neighbour — the
  victim (Figure 1b).

All four factories — and the fuzzer's genomes, and the declarative
playbooks of :mod:`repro.rowhammer.playbook` — compile to the same
schedule representation: a list of :class:`SchedulePhase` (absolute
rows, per-phase read counts, REF gating) run by :func:`compile_schedule`.
Out-of-range rows are handled once, here, by the edge policy
(:func:`clip_rows` / :func:`clip_victims`): rows are clamped into the
bank (or dropped, or rejected), rows that would land on an intended
victim are dropped (activating the victim restores it), and intended
victims outside the bank are dropped — so ``double_sided(0)`` hammers
row 1 instead of the nonexistent row -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.rowhammer.model import DEFAULT_REF_PERIOD

#: Out-of-range row handling of the schedule compiler:
#:
#: - ``"clamp"`` (default) — clamp rows into ``[0, n_rows)``; a row that
#:   (after clamping) coincides with an intended victim is dropped, and
#:   intended victims outside the bank are dropped.
#: - ``"drop"`` — out-of-range rows and victims are dropped outright
#:   (no clamping), victim collisions likewise.
#: - ``"error"`` — any out-of-range row or victim, or a row landing on a
#:   victim, raises :class:`ValueError`.
EDGE_POLICIES = ("clamp", "drop", "error")


@dataclass(frozen=True)
class AttackPattern:
    """A named aggressor-activation pattern.

    ``schedule(budget, ref_period)`` yields one aggressor row per
    activation slot; ``ref_period`` (activations between REF commands)
    lets REF-synchronized attacks like TRRespass time their tracker
    flushes.
    """

    name: str
    aggressors: Sequence[int]
    intended_victims: Sequence[int]
    schedule: Callable[[int, int], Iterator[int]]

    def activations(
        self, budget: int, ref_period: int = DEFAULT_REF_PERIOD
    ) -> Iterator[int]:
        """The attack's activation stream, capped at ``budget`` ACTs."""
        return self.schedule(budget, ref_period)


@dataclass(frozen=True)
class SchedulePhase:
    """One phase of a compiled schedule.

    ``rows`` are absolute, already weight-expanded rows cycled
    round-robin. ``reads`` is the phase's activation count per schedule
    cycle; ``None`` marks the *fill* phase, which takes whatever the REF
    period leaves after the explicit phases (REF gating: an explicit
    trailing phase lands just before each REF command). ``restart``
    re-anchors the phase's round-robin pointer at the start of every
    cycle instead of letting it persist across cycles.
    """

    rows: Tuple[int, ...]
    reads: Optional[int] = None
    restart: bool = False


def expand_weights(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """``(row, weight)`` pairs -> the flat row list a phase cycles over."""
    rows: List[int] = []
    for row, weight in pairs:
        if weight < 0:
            raise ValueError(f"row {row} has negative weight {weight}")
        rows.extend([row] * weight)
    if not rows:
        raise ValueError(
            "every row weight is 0: the phase would hammer nothing"
        )
    return tuple(rows)


def _in_range(row: int, n_rows: Optional[int]) -> bool:
    return row >= 0 and (n_rows is None or row < n_rows)


def clip_victims(
    victims: Sequence[int],
    n_rows: Optional[int] = None,
    policy: str = "clamp",
) -> Tuple[int, ...]:
    """Apply the edge policy to intended victims: out-of-range victims
    do not exist, so they are dropped (or rejected under ``"error"``)."""
    if policy not in EDGE_POLICIES:
        raise ValueError(
            f"unknown edge policy {policy!r}; known: {', '.join(EDGE_POLICIES)}"
        )
    kept: List[int] = []
    for victim in victims:
        if _in_range(victim, n_rows):
            kept.append(victim)
        elif policy == "error":
            raise ValueError(
                f"intended victim {victim} is outside the bank "
                f"(n_rows={n_rows})"
            )
    return tuple(kept)


def clip_rows(
    pairs: Sequence[Tuple[int, int]],
    victims: Sequence[int],
    n_rows: Optional[int] = None,
    policy: str = "clamp",
) -> List[Tuple[int, int]]:
    """Apply the edge policy to ``(row, weight)`` activation targets.

    Rows outside ``[0, n_rows)`` are clamped (or dropped / rejected per
    ``policy``); any row that then coincides with an intended victim is
    dropped — activating a victim restores its cells, so a schedule that
    touches it silently un-hammers itself.
    """
    if policy not in EDGE_POLICIES:
        raise ValueError(
            f"unknown edge policy {policy!r}; known: {', '.join(EDGE_POLICIES)}"
        )
    victim_set = set(victims)
    kept: List[Tuple[int, int]] = []
    for row, weight in pairs:
        if not _in_range(row, n_rows):
            if policy == "error":
                raise ValueError(
                    f"row {row} is outside the bank (n_rows={n_rows})"
                )
            if policy == "drop":
                continue
            row = 0 if row < 0 else min(row, n_rows - 1)
        if row in victim_set:
            if policy == "error":
                raise ValueError(
                    f"row {row} coincides with an intended victim — "
                    "activating the victim refreshes it"
                )
            continue
        kept.append((row, weight))
    return kept


def compile_schedule(
    phases: Sequence[SchedulePhase], min_fill: int = 1
) -> Callable[[int, int], Iterator[int]]:
    """Compile phases into a ``schedule(budget, ref_period)`` generator.

    Phases cycle in order until the budget is exhausted. With a fill
    phase (``reads=None``) the cycle is REF-synchronized: the fill phase
    hammers for ``max(min_fill, ref_period - explicit_reads)`` slots, so
    the explicit phases (tracker-flush bursts) land just before each REF
    command. Without one, phases simply repeat with their explicit
    counts. The generator is a pure function of ``(budget, ref_period)``
    — identical arguments replay a bit-identical activation stream.
    """
    if not phases:
        raise ValueError("a schedule needs at least one phase")
    if min_fill < 1:
        raise ValueError(f"min_fill must be >= 1, got {min_fill}")
    fill_phases = sum(1 for phase in phases if phase.reads is None)
    if fill_phases > 1:
        raise ValueError("at most one phase may fill the REF period (reads=None)")
    for phase in phases:
        if not phase.rows:
            raise ValueError("a schedule phase has no rows to hammer")
        if phase.reads is not None and phase.reads < 1:
            raise ValueError(f"phase reads must be >= 1, got {phase.reads}")
    explicit_total = sum(
        phase.reads for phase in phases if phase.reads is not None
    )
    compiled = tuple(phases)

    def schedule(budget: int, ref_period: int) -> Iterator[int]:
        pointers = [0] * len(compiled)
        issued = 0
        while issued < budget:
            for index, phase in enumerate(compiled):
                slots = (
                    phase.reads
                    if phase.reads is not None
                    else max(min_fill, ref_period - explicit_total)
                )
                if phase.restart:
                    pointers[index] = 0
                rows = phase.rows
                n = len(rows)
                pointer = pointers[index]
                for _ in range(min(slots, budget - issued)):
                    yield rows[pointer % n]
                    pointer += 1
                    issued += 1
                pointers[index] = pointer

    return schedule


def _round_robin(rows: Sequence[int]) -> Callable[[int, int], Iterator[int]]:
    return compile_schedule([SchedulePhase(rows=tuple(rows))])


def single_sided(
    aggressor: int,
    n_rows: Optional[int] = None,
    edge_policy: str = "clamp",
) -> AttackPattern:
    """Hammer one row; its distance-1 neighbours are the victims."""
    victims = clip_victims((aggressor - 1, aggressor + 1), n_rows, edge_policy)
    rows = clip_rows([(aggressor, 1)], victims, n_rows, edge_policy)
    return AttackPattern(
        name="single-sided",
        aggressors=tuple(row for row, _ in rows),
        intended_victims=victims,
        schedule=compile_schedule([SchedulePhase(rows=expand_weights(rows))]),
    )


def double_sided(
    victim: int,
    n_rows: Optional[int] = None,
    edge_policy: str = "clamp",
) -> AttackPattern:
    """Hammer both neighbours of ``victim`` alternately.

    At the bank edge (``victim`` 0 or ``n_rows - 1``) the missing
    neighbour is dropped by the edge policy and the pattern degrades to
    one-sided hammering of the remaining neighbour.
    """
    victims = clip_victims((victim,), n_rows, edge_policy)
    rows = clip_rows(
        [(victim - 1, 1), (victim + 1, 1)], victims, n_rows, edge_policy
    )
    return AttackPattern(
        name="double-sided",
        aggressors=tuple(row for row, _ in rows),
        intended_victims=victims,
        schedule=compile_schedule([SchedulePhase(rows=expand_weights(rows))]),
    )


def many_sided(victim: int, n_dummies: int = 12, dummy_stride: int = 4,
               flush_burst: int = 6, n_rows: Optional[int] = None,
               edge_policy: str = "clamp") -> AttackPattern:
    """TRRespass-style many-sided pattern (REF-synchronized).

    The true aggressor pair (around ``victim``) is hammered for most of
    each REF period; just before every REF command a burst of dummy-row
    activations flushes the recency-limited TRR tracker, so the rows the
    mitigation refreshes at REF time are the dummies' neighbours — never
    the real victim. (Real TRRespass discovers the REF cadence from
    timing; here the cadence is a parameter of the schedule.) The
    defaults are the playbook library's ``many-sided``: dummies at
    ``victim + 10, + 14, ..., + 54``, so ``many_sided(64)`` stays inside
    the default 128-row bank.
    """
    victims = clip_victims((victim,), n_rows, edge_policy)
    true_pair = clip_rows(
        [(victim - 1, 1), (victim + 1, 1)], victims, n_rows, edge_policy
    )
    dummies = clip_rows(
        [(victim + 10 + i * dummy_stride, 1) for i in range(n_dummies)],
        victims,
        n_rows,
        edge_policy,
    )
    return AttackPattern(
        name="many-sided(trrespass)",
        aggressors=tuple(row for row, _ in true_pair + dummies),
        intended_victims=victims,
        schedule=compile_schedule(
            [
                SchedulePhase(rows=expand_weights(true_pair), restart=True),
                SchedulePhase(rows=expand_weights(dummies), reads=flush_burst),
            ],
            min_fill=2,
        ),
    )


def half_double(
    victim: int,
    n_rows: Optional[int] = None,
    edge_policy: str = "clamp",
) -> AttackPattern:
    """Half-Double: distance-2 aggressors, mitigation-assisted.

    Hammering ``victim +/- 2`` triggers precise mitigations to keep
    refreshing ``victim +/- 1``; each of those refreshes is itself an
    activation adjacent to ``victim``. Direct distance-2 coupling alone is
    far too weak — the mitigation supplies the decisive hammering
    (Figure 1b).
    """
    victims = clip_victims((victim,), n_rows, edge_policy)
    rows = clip_rows(
        [(victim - 2, 1), (victim + 2, 1)], victims, n_rows, edge_policy
    )
    return AttackPattern(
        name="half-double",
        aggressors=tuple(row for row, _ in rows),
        intended_victims=victims,
        schedule=compile_schedule([SchedulePhase(rows=expand_weights(rows))]),
    )
