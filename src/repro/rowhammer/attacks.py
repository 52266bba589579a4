"""Row-Hammer attacks as declarative playbooks (Sections II-C, II-E).

Every attack in this repo — the scenario library of
:mod:`repro.rowhammer.playbook` (single-, double- and many-sided
hammering, Half-Double, ...), the fuzzer's genomes and the isolation
study's boundary hammer — is a *playbook*: a plain JSON/dict document,
the litex-rowhammer-tester idiom, compiled here into an
:class:`AttackPattern`, the activation stream an
:class:`~repro.rowhammer.runner.AttackRunner` drives.

Playbook format (``PlaybookSpec.from_dict``)::

    {
      "name": "double-sided-decoy",        # required, unique
      "summary": "one line for `playbook list`",
      "base_row": null,                    # victim anchor; null = campaign default
      "n_rows": null,                      # bank size; null = campaign default
      "edge_policy": "clamp",              # clamp | drop | error (EDGE_POLICIES)
      "min_fill": 1,                       # floor of the fill phase's slots
      "data_inversion": false,             # consume 0x5A-filled rows instead of 0xA5
      "victims": [0],                      # ints = offsets from base_row; {"row": N} pins
      "phases": [                          # one entry per SchedulePhase
        {"rows": [-1, 1], "restart": false},          # reads omitted -> fill phase
        {"rows": [{"offset": 10, "weight": 2},        # weighted + absolute rows
                  {"row": 100}],
         "reads": 6}                                  # REF-gated burst length
      ],
      "sweep": {"phases.1.reads": [2, 6, 10]}         # axes -> expanded variants
    }

Row entries are either a bare int (an offset from the resolved base row)
or a dict with exactly one of ``offset``/``row`` plus an optional
``weight``. Sweep axes address any field of the canonical dict by dotted
path (list indices are numeric segments); :func:`expand_spec` takes the
cartesian product over all axes and names each variant
``name[path=value,...]``.

:func:`compile_playbook` resolves rows against the base row, applies
the edge policy once — rows are clamped into the bank (or dropped, or
rejected), rows that would land on an intended victim are dropped
(activating the victim restores it), and intended victims outside the
bank are dropped, so double-sided hammering at row 0 hammers row 1
instead of the nonexistent row -1 — and hands the phases to
:func:`compile_schedule`: a list of :class:`SchedulePhase` (absolute
rows, per-phase read counts, REF gating). A playbook's activation stream
is a pure function of its dict: same dict, same ``(budget,
ref_period)``, bit-identical stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.rowhammer.model import DEFAULT_REF_PERIOD

#: Out-of-range row handling of the compiler:
#:
#: - ``"clamp"`` (default) — clamp rows into ``[0, n_rows)``; a row that
#:   (after clamping) coincides with an intended victim is dropped, and
#:   intended victims outside the bank are dropped.
#: - ``"drop"`` — out-of-range rows and victims are dropped outright
#:   (no clamping), victim collisions likewise.
#: - ``"error"`` — any out-of-range row or victim, or a row landing on a
#:   victim, raises :class:`ValueError`.
EDGE_POLICIES = ("clamp", "drop", "error")

#: Fill pattern of consumed victim rows; ``data_inversion`` flips it so
#: anti-cell rows (charged '0' cells) are exercised too.
FILL_BYTE = b"\xa5"
INVERTED_FILL_BYTE = b"\x5a"


@dataclass(frozen=True)
class AttackPattern:
    """A named aggressor-activation pattern, compiled from a playbook.

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


# ---------------------------------------------------------------------------
# The schedule compiler
# ---------------------------------------------------------------------------


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


def _expand_weights(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """``(row, weight)`` pairs -> the flat row list a phase cycles over."""
    rows: List[int] = []
    for row, weight in pairs:
        rows.extend([row] * weight)
    if not rows:
        raise ValueError(
            "every row weight is 0: the phase would hammer nothing"
        )
    return tuple(rows)


def _in_range(row: int, n_rows: Optional[int]) -> bool:
    return row >= 0 and (n_rows is None or row < n_rows)


def _clip_victims(
    victims: Sequence[int], n_rows: Optional[int], policy: str
) -> Tuple[int, ...]:
    """Apply the edge policy to intended victims: out-of-range victims
    do not exist, so they are dropped (or rejected under ``"error"``)."""
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


def _clip_rows(
    pairs: Sequence[Tuple[int, int]],
    victims: Sequence[int],
    n_rows: Optional[int],
    policy: str,
) -> List[Tuple[int, int]]:
    """Apply the edge policy to ``(row, weight)`` activation targets.

    Rows outside ``[0, n_rows)`` are clamped (or dropped / rejected per
    ``policy``); any row that then coincides with an intended victim is
    dropped — activating a victim restores its cells, so a schedule that
    touches it silently un-hammers itself.
    """
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


# ---------------------------------------------------------------------------
# The playbook format + dict round-trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    """One row reference: an offset from the base row XOR an absolute row."""

    offset: Optional[int] = None
    row: Optional[int] = None
    weight: int = 1

    def __post_init__(self) -> None:
        if (self.offset is None) == (self.row is None):
            raise ValueError(
                "a row spec needs exactly one of 'offset' (relative to the "
                f"base row) or 'row' (absolute); got {self!r}"
            )
        if self.weight < 0:
            raise ValueError(f"row weight must be >= 0, got {self.weight}")

    def resolve(self, base_row: int) -> int:
        return self.row if self.row is not None else base_row + self.offset

    def to_dict(self) -> dict:
        payload: Dict[str, int] = {}
        if self.offset is not None:
            payload["offset"] = self.offset
        else:
            payload["row"] = self.row
        payload["weight"] = self.weight
        return payload


@dataclass(frozen=True)
class PhaseSpec:
    """One schedule phase: rows plus an optional REF-gated read count."""

    rows: Tuple[RowSpec, ...]
    reads: Optional[int] = None
    restart: bool = False

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a phase needs at least one row")

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "reads": self.reads,
            "restart": self.restart,
        }


@dataclass(frozen=True)
class PlaybookSpec:
    """A validated playbook document."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    victims: Tuple[RowSpec, ...]
    base_row: Optional[int] = None
    n_rows: Optional[int] = None
    edge_policy: str = "clamp"
    min_fill: int = 1
    data_inversion: bool = False
    #: Sorted ``(dotted path, values)`` sweep axes.
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a playbook needs a non-empty string name")
        if not self.phases:
            raise ValueError(f"playbook {self.name!r} has no phases")
        if not self.victims:
            raise ValueError(f"playbook {self.name!r} names no victims")
        if self.edge_policy not in EDGE_POLICIES:
            raise ValueError(
                f"playbook {self.name!r}: unknown edge policy "
                f"{self.edge_policy!r}; known: {', '.join(EDGE_POLICIES)}"
            )
        if self.min_fill < 1:
            raise ValueError(
                f"playbook {self.name!r}: min_fill must be >= 1, "
                f"got {self.min_fill}"
            )

    @property
    def fill_byte(self) -> bytes:
        return INVERTED_FILL_BYTE if self.data_inversion else FILL_BYTE

    # -- dict round-trip -----------------------------------------------------

    _FIELDS = (
        "name",
        "summary",
        "base_row",
        "n_rows",
        "edge_policy",
        "min_fill",
        "data_inversion",
        "victims",
        "phases",
        "sweep",
    )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlaybookSpec":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown playbook field(s) {', '.join(unknown)}; "
                f"known: {', '.join(cls._FIELDS)}"
            )
        name = payload.get("name", "")
        phases = tuple(
            _phase_from_dict(name, index, entry)
            for index, entry in enumerate(payload.get("phases", ()))
        )
        victims = tuple(
            _row_from_entry(entry) for entry in payload.get("victims", ())
        )
        sweep_payload = payload.get("sweep", {})
        if not isinstance(sweep_payload, Mapping):
            raise ValueError(
                f"playbook {name!r}: 'sweep' must map dotted paths to "
                "value lists"
            )
        sweep = []
        for path in sorted(sweep_payload):
            values = sweep_payload[path]
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"playbook {name!r}: sweep axis {path!r} needs a "
                    "non-empty value list"
                )
            sweep.append((path, tuple(values)))
        return cls(
            name=name,
            phases=phases,
            victims=victims,
            base_row=payload.get("base_row"),
            n_rows=payload.get("n_rows"),
            edge_policy=payload.get("edge_policy", "clamp"),
            min_fill=payload.get("min_fill", 1),
            data_inversion=bool(payload.get("data_inversion", False)),
            sweep=tuple(sweep),
            summary=payload.get("summary", ""),
        )

    def to_dict(self) -> dict:
        """The canonical dict form: every field present, rows as dicts.

        Canonical means sweep paths always resolve and two specs compare
        equal iff their dicts do — the form fingerprints embed.
        """
        return {
            "name": self.name,
            "summary": self.summary,
            "base_row": self.base_row,
            "n_rows": self.n_rows,
            "edge_policy": self.edge_policy,
            "min_fill": self.min_fill,
            "data_inversion": self.data_inversion,
            "victims": [victim.to_dict() for victim in self.victims],
            "phases": [phase.to_dict() for phase in self.phases],
            "sweep": {path: list(values) for path, values in self.sweep},
        }


def _row_from_entry(entry) -> RowSpec:
    if isinstance(entry, bool):
        raise ValueError(f"row entry {entry!r} is not an int or mapping")
    if isinstance(entry, int):
        return RowSpec(offset=entry)
    if isinstance(entry, Mapping):
        unknown = sorted(set(entry) - {"offset", "row", "weight"})
        if unknown:
            raise ValueError(
                f"unknown row field(s) {', '.join(unknown)}; "
                "known: offset, row, weight"
            )
        return RowSpec(
            offset=entry.get("offset"),
            row=entry.get("row"),
            weight=entry.get("weight", 1),
        )
    raise ValueError(f"row entry {entry!r} is not an int or mapping")


def _phase_from_dict(name: str, index: int, entry) -> PhaseSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(
            f"playbook {name!r}: phase {index} must be a mapping, "
            f"got {entry!r}"
        )
    unknown = sorted(set(entry) - {"rows", "reads", "restart"})
    if unknown:
        raise ValueError(
            f"playbook {name!r}: unknown phase field(s) "
            f"{', '.join(unknown)}; known: rows, reads, restart"
        )
    return PhaseSpec(
        rows=tuple(_row_from_entry(row) for row in entry.get("rows", ())),
        reads=entry.get("reads"),
        restart=bool(entry.get("restart", False)),
    )


# ---------------------------------------------------------------------------
# Compilation + sweep-axis expansion
# ---------------------------------------------------------------------------


def compile_playbook(
    spec: PlaybookSpec,
    base_row: Optional[int] = None,
    n_rows: Optional[int] = None,
) -> AttackPattern:
    """Compile a playbook into an :class:`AttackPattern`.

    ``base_row``/``n_rows`` are campaign defaults: the spec's own fields
    win when set. ``n_rows=None`` (both places) leaves the bank unbounded
    above — only the ``row >= 0`` edge applies.
    """
    base = spec.base_row if spec.base_row is not None else base_row
    if base is None:
        raise ValueError(
            f"playbook {spec.name!r} pins no base_row; pass one "
            "(the campaign's victim_row)"
        )
    bank = spec.n_rows if spec.n_rows is not None else n_rows
    victims = _clip_victims(
        [victim.resolve(base) for victim in spec.victims],
        bank,
        spec.edge_policy,
    )
    phases: List[SchedulePhase] = []
    aggressors: List[int] = []
    for index, phase in enumerate(spec.phases):
        pairs = _clip_rows(
            [(row.resolve(base), row.weight) for row in phase.rows],
            victims,
            bank,
            spec.edge_policy,
        )
        try:
            rows = _expand_weights(pairs)
        except ValueError as exc:
            raise ValueError(
                f"playbook {spec.name!r}: phase {index} is empty after the "
                f"{spec.edge_policy!r} edge policy ({exc})"
            ) from None
        for row in rows:
            if row not in aggressors:
                aggressors.append(row)
        phases.append(
            SchedulePhase(rows=rows, reads=phase.reads, restart=phase.restart)
        )
    return AttackPattern(
        name=spec.name,
        aggressors=tuple(aggressors),
        intended_victims=victims,
        schedule=compile_schedule(phases, min_fill=spec.min_fill),
    )


def _set_path(payload: dict, path: str, value) -> None:
    """Set a dotted path inside the canonical dict (lists by index)."""
    segments = path.split(".")
    cursor = payload
    walked = []
    for segment in segments[:-1]:
        walked.append(segment)
        if isinstance(cursor, list):
            try:
                cursor = cursor[int(segment)]
            except (ValueError, IndexError):
                raise ValueError(
                    f"sweep path {path!r}: no list index {segment!r} "
                    f"at {'.'.join(walked)}"
                ) from None
        elif isinstance(cursor, dict):
            if segment not in cursor:
                raise ValueError(
                    f"sweep path {path!r}: no field {segment!r} "
                    f"at {'.'.join(walked)}"
                )
            cursor = cursor[segment]
        else:
            raise ValueError(
                f"sweep path {path!r}: {'.'.join(walked[:-1])} is not "
                "a container"
            )
    leaf = segments[-1]
    if isinstance(cursor, list):
        try:
            cursor[int(leaf)] = value
        except (ValueError, IndexError):
            raise ValueError(
                f"sweep path {path!r}: no list index {leaf!r}"
            ) from None
    elif isinstance(cursor, dict):
        cursor[leaf] = value
    else:
        raise ValueError(f"sweep path {path!r} does not address a field")


def expand_spec(spec: PlaybookSpec) -> List[PlaybookSpec]:
    """Expand sweep axes into concrete variants (axes in sorted order).

    A sweep-free playbook expands to itself; axes expand to the cartesian
    product, each variant named ``name[path=value,...]`` and re-validated
    through :meth:`PlaybookSpec.from_dict`.
    """
    if not spec.sweep:
        return [spec]
    paths = [path for path, _ in spec.sweep]
    variants: List[PlaybookSpec] = []
    for combo in itertools.product(*(values for _, values in spec.sweep)):
        payload = spec.to_dict()
        payload["sweep"] = {}
        for path, value in zip(paths, combo):
            _set_path(payload, path, value)
        payload["name"] = "{}[{}]".format(
            spec.name,
            ",".join(f"{path}={value}" for path, value in zip(paths, combo)),
        )
        variants.append(PlaybookSpec.from_dict(payload))
    return variants
