"""Row-Hammer substrate: disturbance model, attacks, and mitigations.

Implements the threat the paper defends against (Sections I, II):

- :mod:`repro.rowhammer.thresholds` — Table I / Figure 1a: the published
  RH-Threshold per DRAM generation.
- :mod:`repro.rowhammer.model` — a per-row disturbance-accumulation model
  with distance-dependent coupling and refresh-is-an-activation semantics
  (the lever Half-Double pulls).
- :mod:`repro.rowhammer.mitigations` — PARA (probabilistic), TRR-style
  capacity-limited tracking, and Graphene-style Misra-Gries tracking.
- :mod:`repro.rowhammer.attacks` — access-pattern generators: single- and
  double-sided hammering, TRRespass many-sided (tracker-eviction), and
  Half-Double (mitigation-assisted distance-2).
- :mod:`repro.rowhammer.runner` — drives an attack against a mitigation
  for a number of refresh windows and reports the victim bit-flips.
- :mod:`repro.rowhammer.integration` — wires breakthrough flips into the
  memory-controller data paths to show consumption outcomes: silent
  corruption under conventional ECC versus DUE under SafeGuard
  (Figure 1c).
- :mod:`repro.rowhammer.eccploit` — the ECCploit-style timing-channel
  attack against word-granularity SECDED (Section II-E, Case-3).
- :mod:`repro.rowhammer.playbook` — the one attack campaign:
  declarative JSON/dict attack playbooks compiled through the shared
  schedule compiler, a library of named scenarios, and campaign
  execution (scenarios x mitigations x schemes) over the generic
  campaign core (``python -m repro playbook``; Figures 1b and 1c run as
  playbook grids).
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
    single_sided,
    double_sided,
    many_sided,
    half_double,
    AttackPattern,
)
from repro.rowhammer.runner import AttackRunner, AttackResult
from repro.rowhammer.integration import VictimArray, ConsumptionOutcome
from repro.rowhammer.playbook import (
    SCENARIOS,
    PlaybookCell,
    PlaybookConfig,
    PlaybookOutcome,
    PlaybookSpec,
    compile_playbook,
    expand_spec,
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
    "single_sided",
    "double_sided",
    "many_sided",
    "half_double",
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
