"""Isolation-based mitigation: guard rows between security domains.

The third of Section II-D's four mitigation classes (CATT [4], ZebRAM
[23], RIP-RH [3]): the allocator keeps ``guard_distance`` unused rows
between rows of different security domains, so hammering attacker-owned
rows cannot disturb victim rows — *if* the blast-radius assumption holds.
"These techniques only consider the immediate adjacent row and may be
vulnerable to more complex patterns": with a single guard row, a
Half-Double-style pattern crosses the band — the attacker hammers its own
boundary row, the deployed in-DRAM mitigation dutifully refreshes the
*guard* row (the boundary row's neighbour), and those refreshes are
activations adjacent to the victim's first row.

:class:`GuardRowAllocator` implements the placement policy;
:func:`evaluate_isolation` runs the boundary-hammering campaign for a
given guard distance and reports cross-domain flips and the capacity the
guards cost (full ZebRAM-style striping sacrifices half of memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.rowhammer.attacks import PlaybookSpec, compile_playbook
from repro.rowhammer.mitigations import Mitigation, NoMitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner


@dataclass(frozen=True)
class DomainLayout:
    """Row ranges assigned per security domain, with guards between."""

    domain_rows: Dict[str, List[int]]
    guard_rows: List[int]
    total_rows: int

    @property
    def capacity_overhead(self) -> float:
        """Fraction of rows sacrificed to guards."""
        return len(self.guard_rows) / self.total_rows if self.total_rows else 0.0


class GuardRowAllocator:
    """Contiguous-stripe domain allocator with guard rows between."""

    def __init__(self, n_rows: int, guard_distance: int = 1):
        if guard_distance < 0:
            raise ValueError("guard_distance must be non-negative")
        self.n_rows = n_rows
        self.guard_distance = guard_distance

    def place(self, domains: List[str], rows_per_domain: int) -> DomainLayout:
        """Lay out domains as contiguous stripes separated by guards."""
        layout: Dict[str, List[int]] = {name: [] for name in domains}
        guards: List[int] = []
        row = 0
        for index, name in enumerate(domains):
            if index > 0:
                for _ in range(self.guard_distance):
                    if row < self.n_rows:
                        guards.append(row)
                        row += 1
            for _ in range(rows_per_domain):
                if row >= self.n_rows:
                    raise ValueError("layout does not fit in the bank")
                layout[name].append(row)
                row += 1
        return DomainLayout(layout, guards, self.n_rows)


@dataclass
class IsolationOutcome:
    guard_distance: int
    mitigation: str
    cross_domain_flips: int
    guard_row_flips: int
    own_domain_flips: int
    capacity_overhead: float

    @property
    def isolation_held(self) -> bool:
        return self.cross_domain_flips == 0


def evaluate_isolation(
    guard_distance: int,
    mitigation_factory: Optional[Callable[[], Mitigation]] = None,
    rh_threshold: int = 1200,
    budget: int = 340_000,
    seed: int = 1,
) -> IsolationOutcome:
    """Hammer the attacker's boundary rows toward the victim domain.

    The attacker activates only rows it owns — its two rows nearest the
    guard band, the strongest legal position. Bit-flips landing in the
    victim's rows breach isolation; flips inside the attacker's own
    domain or the guard rows do not.
    """
    config = RowHammerConfig(rh_threshold=rh_threshold, seed=seed)
    model = DisturbanceModel(config)
    allocator = GuardRowAllocator(config.n_rows, guard_distance)
    layout = allocator.place(["attacker", "victim"], rows_per_domain=48)
    attacker_rows = layout.domain_rows["attacker"]
    victim_rows = set(layout.domain_rows["victim"])
    guard_rows = set(layout.guard_rows)

    boundary = attacker_rows[-1]
    playbook = {
        "name": f"boundary-hammer(guard={guard_distance})",
        "base_row": boundary,
        "victims": [{"row": row} for row in sorted(victim_rows)],
        # A legal pseudo-double-sided pair: both rows are the attacker's.
        "phases": [{"rows": [{"row": boundary}, {"row": boundary - 2}]}],
    }
    attack = compile_playbook(
        PlaybookSpec.from_dict(playbook), n_rows=config.n_rows
    )
    mitigation = mitigation_factory() if mitigation_factory else NoMitigation()
    result = AttackRunner(model, mitigation).run(attack, windows=1, budget=budget)

    cross = sum(c for row, c in result.flips_by_row.items() if row in victim_rows)
    in_guards = sum(c for row, c in result.flips_by_row.items() if row in guard_rows)
    own = sum(
        c for row, c in result.flips_by_row.items() if row in set(attacker_rows)
    )
    return IsolationOutcome(
        guard_distance=guard_distance,
        mitigation=mitigation.name,
        cross_domain_flips=cross,
        guard_row_flips=in_guards,
        own_domain_flips=own,
        capacity_overhead=layout.capacity_overhead,
    )
