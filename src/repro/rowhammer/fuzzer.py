"""Automated access-pattern search (Blacksmith-style fuzzing).

The paper's core motivation is that "newer attacks with more intelligent
access patterns continue to break through existing RH mitigation" — a
process that has since been automated (Blacksmith, USENIX Sec'22, fuzzes
non-uniform patterns against in-DRAM TRR). This module implements that
search loop against our mitigation zoo: a pattern *genome* (aggressor
offsets, per-row intensities, optional REF-synchronized dummy flushing)
is sampled and mutated, each candidate is scored by the victim flips it
achieves in one refresh window, and the search keeps the best.

The takeaway it produces is the paper's Figure 1c argument in mechanized
form: given enough trials, some pattern breaks each precise mitigation —
so the system needs detection that is pattern-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.rowhammer.attacks import PlaybookSpec, compile_playbook
from repro.rowhammer.mitigations import Mitigation
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner


@dataclass(frozen=True)
class PatternGenome:
    """A randomized hammering schedule around a victim row.

    Construction validates the genome: it must hammer *something* (at
    least one aggressor with positive weight), aggressor
    offsets must not be 0, and flush offsets must stay out of
    ``{-1, 0, +1}`` — a flush row landing on the victim refreshes it,
    and one landing on a distance-1 neighbour doubles as an extra true
    aggressor; either silently mis-scores the genome.
    """

    #: (row offset from victim, weight) pairs; offset 0 is forbidden
    #: (touching the victim refreshes it).
    aggressors: Tuple[Tuple[int, int], ...]
    #: Dummy rows activated just before each REF (tracker flushing).
    flush_rows: Tuple[int, ...]
    flush_burst: int

    def __post_init__(self) -> None:
        if not self.aggressors:
            raise ValueError("a genome needs at least one aggressor")
        total_weight = 0
        for offset, weight in self.aggressors:
            if offset == 0:
                raise ValueError(
                    "aggressor offset 0 is forbidden "
                    "(touching the victim refreshes it)"
                )
            if weight < 0:
                raise ValueError(f"aggressor weight must be >= 0, got {weight}")
            total_weight += weight
        if total_weight == 0:
            raise ValueError(
                "every aggressor weight is 0: the genome hammers nothing"
            )
        for offset in self.flush_rows:
            if offset in (-1, 0, 1):
                raise ValueError(
                    f"flush offset {offset} is forbidden: it lands on the "
                    "victim or a distance-1 neighbour and corrupts scoring"
                )
        if self.flush_burst < 0:
            raise ValueError(
                f"flush_burst must be >= 0, got {self.flush_burst}"
            )

    def to_playbook(self, name: str, summary: str = "") -> dict:
        """The genome as a playbook payload (victim-relative offsets).

        The fuzzer scores a genome by compiling this payload at its
        victim, and fuzzer champions become named library scenarios in
        :mod:`repro.rowhammer.playbook` the same way.
        """
        phases: List[dict] = [
            {
                "rows": [
                    {"offset": offset, "weight": weight}
                    for offset, weight in self.aggressors
                ]
            }
        ]
        if self.flush_rows and self.flush_burst > 0:
            phases.append(
                {
                    "rows": [{"offset": offset} for offset in self.flush_rows],
                    "reads": self.flush_burst,
                }
            )
        payload = {"name": name, "phases": phases, "victims": [0]}
        if summary:
            payload["summary"] = summary
        return payload


@dataclass
class FuzzResult:
    trials: int
    best_genome: Optional[PatternGenome]
    best_flips: int
    trials_to_first_break: Optional[int]
    history: List[int] = field(default_factory=list)

    @property
    def found_breakthrough(self) -> bool:
        return self.best_flips > 0


class PatternFuzzer:
    """Random-search fuzzer for mitigation-breaking access patterns."""

    OFFSETS = (-3, -2, -1, 1, 2, 3)

    def __init__(
        self,
        mitigation_factory: Callable[[], Mitigation],
        rh_threshold: int = 600,
        budget: int = 120_000,
        victim: int = 64,
        seed: int = 0,
    ):
        self.mitigation_factory = mitigation_factory
        self.rh_threshold = rh_threshold
        self.budget = budget
        self.victim = victim
        self._rng = random.Random(seed)

    # -- genome sampling -----------------------------------------------------------

    def random_genome(self) -> PatternGenome:
        rng = self._rng
        n_aggressors = rng.randint(1, 4)
        aggressors = tuple(
            (rng.choice(self.OFFSETS), rng.randint(1, 4))
            for _ in range(n_aggressors)
        )
        if rng.random() < 0.5:
            flush = tuple(
                rng.randrange(10, 60) for _ in range(rng.randint(2, 10))
            )
            burst = rng.randint(2, 8)
        else:
            flush, burst = (), 0
        return PatternGenome(aggressors, flush, burst)

    def mutate(self, genome: PatternGenome) -> PatternGenome:
        rng = self._rng
        aggressors = list(genome.aggressors)
        choice = rng.random()
        if choice < 0.4 and aggressors:
            index = rng.randrange(len(aggressors))
            offset, weight = aggressors[index]
            aggressors[index] = (
                rng.choice(self.OFFSETS),
                max(1, weight + rng.choice((-1, 1))),
            )
        elif choice < 0.6 and len(aggressors) < 6:
            aggressors.append((rng.choice(self.OFFSETS), rng.randint(1, 4)))
        elif choice < 0.8:
            flush = tuple(rng.randrange(10, 60) for _ in range(rng.randint(2, 10)))
            return PatternGenome(tuple(aggressors), flush, rng.randint(2, 8))
        else:
            return self.random_genome()
        return PatternGenome(tuple(aggressors), genome.flush_rows, genome.flush_burst)

    # -- evaluation -----------------------------------------------------------------

    def score(self, genome: PatternGenome, seed: int = 1) -> int:
        model = DisturbanceModel(
            RowHammerConfig(rh_threshold=self.rh_threshold, seed=seed)
        )
        runner = AttackRunner(model, self.mitigation_factory())
        attack = compile_playbook(
            PlaybookSpec.from_dict(genome.to_playbook("fuzzed")),
            base_row=self.victim,
            n_rows=model.config.n_rows,
        )
        result = runner.run(attack, windows=1, budget=self.budget)
        return result.intended_flips

    def search(self, n_trials: int = 30) -> FuzzResult:
        """Random search with greedy mutation of the incumbent."""
        best_genome: Optional[PatternGenome] = None
        best_flips = 0
        first_break: Optional[int] = None
        history: List[int] = []
        for trial in range(n_trials):
            candidate = (
                self.mutate(best_genome)
                if best_genome is not None and self._rng.random() < 0.6
                else self.random_genome()
            )
            flips = self.score(candidate)
            history.append(flips)
            if flips > best_flips:
                best_flips, best_genome = flips, candidate
                if first_break is None and flips > 0:
                    first_break = trial + 1
        return FuzzResult(
            trials=n_trials,
            best_genome=best_genome,
            best_flips=best_flips,
            trials_to_first_break=first_break,
            history=history,
        )
