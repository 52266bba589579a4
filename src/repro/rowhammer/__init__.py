"""Row-Hammer substrate: disturbance model, attacks, and mitigations.

Implements the threat the paper defends against (Sections I, II):

- :mod:`repro.rowhammer.thresholds` — Table I / Figure 1a: the published
  RH-Threshold per DRAM generation.
- :mod:`repro.rowhammer.model` — a per-row disturbance-accumulation model
  with distance-dependent coupling and refresh-is-an-activation semantics
  (the lever Half-Double pulls).
- :mod:`repro.rowhammer.mitigations` — PARA (probabilistic), TRR-style
  capacity-limited tracking, and Graphene-style Misra-Gries tracking.
- :mod:`repro.rowhammer.attacks` — the one attack format: declarative
  JSON/dict playbooks (victim and aggressor rows, per-phase reads and
  weights, REF-gated flush bursts, sweep axes) and the compiler that
  turns them into activation streams.
- :mod:`repro.rowhammer.runner` — drives an attack against a mitigation
  for a number of refresh windows and reports the victim bit-flips.
- :mod:`repro.rowhammer.integration` — wires breakthrough flips into the
  memory-controller data paths to show consumption outcomes: silent
  corruption under conventional ECC versus DUE under SafeGuard
  (Figure 1c).
- :mod:`repro.rowhammer.eccploit` — the ECCploit-style timing-channel
  attack against word-granularity SECDED (Section II-E, Case-3).
- :mod:`repro.rowhammer.playbook` — the one attack campaign: the
  library of named scenarios (single-, double- and many-sided
  hammering, Half-Double, fuzzed champions, ...) and campaign execution
  (scenarios x mitigations x schemes) over the generic campaign core
  (``python -m repro playbook``; Figures 1b and 1c run as playbook
  grids).
"""

from repro.rowhammer.thresholds import RH_THRESHOLDS, threshold_for
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.mitigations import (
    Mitigation,
    NoMitigation,
    PARA,
    TRRMitigation,
    GrapheneMitigation,
)
from repro.rowhammer.blockhammer import BlockHammerMitigation, CountingBloomFilter
from repro.rowhammer.isolation import (
    GuardRowAllocator,
    DomainLayout,
    IsolationOutcome,
    evaluate_isolation,
)
from repro.rowhammer.global_refresh import (
    RefreshAnalysis,
    analyze as analyze_global_refresh,
    feasibility_breakpoint,
)
from repro.rowhammer.fuzzer import PatternFuzzer, PatternGenome, FuzzResult
from repro.rowhammer.attacks import (
    AttackPattern,
    PlaybookSpec,
    compile_playbook,
    expand_spec,
)
from repro.rowhammer.runner import AttackRunner, AttackResult
from repro.rowhammer.integration import VictimArray, ConsumptionOutcome
from repro.rowhammer.playbook import (
    SCENARIOS,
    PlaybookCell,
    PlaybookConfig,
    PlaybookOutcome,
    lint_scenarios,
    plan_playbook,
    register_scenario,
    report_playbook,
    run_playbook,
    scenario,
)

__all__ = [
    "RH_THRESHOLDS",
    "threshold_for",
    "DisturbanceModel",
    "RowHammerConfig",
    "Mitigation",
    "NoMitigation",
    "PARA",
    "TRRMitigation",
    "GrapheneMitigation",
    "BlockHammerMitigation",
    "CountingBloomFilter",
    "GuardRowAllocator",
    "DomainLayout",
    "IsolationOutcome",
    "evaluate_isolation",
    "RefreshAnalysis",
    "analyze_global_refresh",
    "feasibility_breakpoint",
    "PatternFuzzer",
    "PatternGenome",
    "FuzzResult",
    "AttackPattern",
    "AttackRunner",
    "AttackResult",
    "VictimArray",
    "ConsumptionOutcome",
    "SCENARIOS",
    "PlaybookCell",
    "PlaybookConfig",
    "PlaybookOutcome",
    "PlaybookSpec",
    "compile_playbook",
    "expand_spec",
    "lint_scenarios",
    "plan_playbook",
    "register_scenario",
    "report_playbook",
    "run_playbook",
    "scenario",
]
