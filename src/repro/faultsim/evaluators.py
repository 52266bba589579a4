"""Per-scheme codeword evaluators.

Each evaluator answers: given the faults already present in a module and
one newly arrived fault, is the new situation *corrected*, a *detected
uncorrectable error* (DUE), or a potential *silent data corruption* (SDC)?
Following FaultSim (and the paper's failure criterion), a module fails at
the first DUE **or** SDC.

The semantics encode Table IV:

=============  ==================  ======================  =================
fault mode     SECDED              SafeGuard (+parity)     SafeGuard (no par)
=============  ==================  ======================  =================
single bit     corrected           corrected (ECC-1)       corrected
single column  corrected (1b/word) corrected (data pins)   DUE
single word    DUE/SDC             DUE (MAC)               DUE
row/bank/...   SDC possible        DUE (MAC)               DUE
=============  ==================  ======================  =================

and the Chipkill semantics of Section V: one chip corrected; two chips
detected; three or more may escape (conventional Chipkill) whereas
SafeGuard-Chipkill detects arbitrary corruption (always DUE, never SDC).

**The no-overlap contract.** Every evaluator satisfies::

    classify(existing, new) == classify([], new)

whenever no fault in ``existing`` overlaps ``new`` at line granularity
(``e.overlaps(new, line_granularity=True)`` is False for every ``e``).
Line granularity is the coarsest any evaluator compares at, so a
word-granularity scheme meets it too. Both Monte-Carlo engines rely on
it: an arrival that overlaps no earlier fault of its module takes its
clean-module outcome from a table derived by probing ``classify([], ...)``
(:func:`repro.faultsim.montecarlo.derive_outcome_table`), and only the
modules that table cannot decide reach ``classify`` itself. An evaluator
whose clean-module outcome depends on position fails that derivation;
the reference engine then classifies all its modules one by one.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List

from repro.core import registry
from repro.faultsim.faults import FaultInstance, Pattern
from repro.faultsim.fit import Scope
from repro.faultsim.geometry import ModuleGeometry


class Outcome(enum.Enum):
    CORRECTED = "corrected"
    DUE = "due"
    SDC = "sdc"

    @property
    def is_failure(self) -> bool:
        return self is not Outcome.CORRECTED


class SECDEDEvaluator:
    """Conventional word-granularity (72,64) SECDED."""

    name = "SECDED"

    def __init__(self, geometry: ModuleGeometry):
        self.geometry = geometry

    def classify(self, existing: List[FaultInstance], new: FaultInstance) -> Outcome:
        if new.pattern == Pattern.CHIP_WIDE:
            # The chip's whole per-word contribution (4/8 bits) is suspect:
            # beyond double-error detection, so escapes are possible.
            return Outcome.SDC
        overlapping = [
            e for e in existing if e.overlaps(new, line_granularity=False)
        ]
        if not overlapping:
            return Outcome.CORRECTED
        # Two single-bit-per-word faults in one codeword -> 2 bits: DED
        # fires. Three or more corrupted bits exceed guaranteed detection.
        return Outcome.DUE if len(overlapping) == 1 else Outcome.SDC


class SafeGuardSECDEDEvaluator:
    """SafeGuard at line granularity: ECC-1 + MAC (+ column parity)."""

    def __init__(self, geometry: ModuleGeometry, column_parity: bool = True):
        self.geometry = geometry
        self.column_parity = column_parity
        self.name = (
            "SafeGuard+ColumnParity" if column_parity else "SafeGuard (no parity)"
        )

    def classify(self, existing: List[FaultInstance], new: FaultInstance) -> Outcome:
        # The MAC detects arbitrary corruption, so nothing is ever silent;
        # the only question is whether the fault is *corrected*.
        if new.pattern == Pattern.CHIP_WIDE:
            return Outcome.DUE
        overlapping = [e for e in existing if e.overlaps(new, line_granularity=True)]
        if new.scope is Scope.COLUMN:
            if not self.column_parity:
                # Vertical multi-bit pattern per line: ECC-1 cannot correct.
                return Outcome.DUE
            if self.geometry.is_ecc_chip(new.chip):
                # The 8-bit column parity covers only the 64 data pins
                # (Section IV-C); an ECC-chip pin failure corrupts the
                # metadata beyond ECC-1's single-bit reach.
                return Outcome.DUE
            return Outcome.DUE if overlapping else Outcome.CORRECTED
        # Single-bit fault: ECC-1 corrects it unless the line already
        # carries damage (the Section IV-B birthday case).
        return Outcome.DUE if overlapping else Outcome.CORRECTED


class ChipkillEvaluator:
    """Conventional x4 Chipkill: SSC, double-symbol detection."""

    name = "Chipkill"

    def __init__(self, geometry: ModuleGeometry):
        self.geometry = geometry

    #: Conventional Chipkill codewords cover one beat-pair, so faults
    #: interact at word (column-address) granularity.
    line_granularity = False

    def classify(self, existing: List[FaultInstance], new: FaultInstance) -> Outcome:
        overlapping = [
            e for e in existing if e.overlaps(new, self.line_granularity)
        ]
        chips = {e.chip for e in overlapping} | {new.chip}
        if len(chips) == 1:
            # Any damage confined to one chip is a single symbol: corrected.
            return Outcome.CORRECTED
        if len(chips) == 2:
            return Outcome.DUE
        return Outcome.SDC


class SafeGuardChipkillEvaluator(ChipkillEvaluator):
    """SafeGuard-Chipkill: chip parity corrects one chip, MAC detects all.

    The codeword (MAC + chip parity) spans the whole line, so faults
    interact at line granularity; any multi-chip damage is a DUE — never
    silent.
    """

    name = "SafeGuard-Chipkill"
    line_granularity = True

    def classify(self, existing: List[FaultInstance], new: FaultInstance) -> Outcome:
        outcome = super().classify(existing, new)
        return Outcome.DUE if outcome is Outcome.SDC else outcome


#: Registry scheme name -> FaultSim evaluator factory. The encrypted
#: variant shares its inner scheme's fault-outcome classes (encryption
#: changes what leaks, not what the codes correct or detect).
_EVALUATORS: Dict[str, Callable[[ModuleGeometry], object]] = {
    "secded": SECDEDEvaluator,
    "safeguard-secded": lambda g: SafeGuardSECDEDEvaluator(g, column_parity=True),
    "safeguard-secded-noparity": lambda g: SafeGuardSECDEDEvaluator(
        g, column_parity=False
    ),
    "encrypted-safeguard-secded": lambda g: SafeGuardSECDEDEvaluator(
        g, column_parity=True
    ),
    "chipkill": ChipkillEvaluator,
    "safeguard-chipkill": SafeGuardChipkillEvaluator,
}


def evaluator_for(scheme_name: str, geometry: ModuleGeometry):
    """FaultSim evaluator for a registered scheme, by registry name.

    Raises ``KeyError`` for names not in the scheme registry and
    ``ValueError`` for registered schemes (the standalone MAC baselines)
    that have no FaultSim reliability model.
    """
    registry.scheme(scheme_name)  # unknown names fail with the full list
    try:
        factory = _EVALUATORS[scheme_name]
    except KeyError:
        raise ValueError(
            f"scheme {scheme_name!r} has no FaultSim evaluator; "
            f"modeled: {', '.join(sorted(_EVALUATORS))}"
        ) from None
    return factory(geometry)
