"""End-to-end performance experiments.

``run_workload`` simulates one (workload, organization) pair;
``run_comparison`` runs a set of organizations over a set of workloads
and reports performance normalized to the baseline — the format of
Figures 7, 11, 12 and 13. The geometric mean across workloads matches the
paper's reporting convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cpu.system import System, SystemResult
from repro.cpu.workloads import SPEC2017_PROFILES, WorkloadProfile, profile
from repro.perf import fastpath
from repro.perf.organizations import BASELINE_ECC, PerfOrganization
from repro.switches import PERF


@dataclass
class PerfConfig:
    """Simulation scale knobs.

    The paper runs 500M-instruction SimPoints; the default here is sized
    for interactive runs. Slowdowns are stable to ~0.1% at the default;
    increase ``instructions_per_core`` for tighter estimates.
    """

    n_cores: int = 4
    instructions_per_core: int = 300_000
    warmup_instructions: int = 100_000
    seed: int = 0
    #: Simulation engine: ``"fast"`` / ``"reference"``, or None to follow
    #: the :data:`repro.switches.PERF` switch (``REPRO_PERF``).
    #: Science-relevant — the engines are statistically equivalent but
    #: not bit-identical — so it is part of the campaign fingerprint.
    engine: Optional[str] = None


@dataclass
class WorkloadResult:
    """Normalized performance of each organization on one workload."""

    workload: str
    baseline: SystemResult
    results: Dict[str, SystemResult] = field(default_factory=dict)

    def normalized_performance(self, org_name: str) -> float:
        """Relative performance (1.0 = baseline; <1 = slowdown)."""
        return self.baseline.total_cycles / self.results[org_name].total_cycles

    def slowdown_percent(self, org_name: str) -> float:
        return (1.0 - self.normalized_performance(org_name)) * 100.0


def run_workload(
    workload: WorkloadProfile,
    organization: PerfOrganization,
    config: Optional[PerfConfig] = None,
) -> SystemResult:
    """Simulate one workload under one memory organization.

    Dispatches to the vectorized engine when ``config.engine`` (or the
    :data:`repro.switches.PERF` switch) selects ``"fast"`` and the fast
    engine's timing decomposition applies to the profile; otherwise runs
    the reference :class:`System`.
    """
    config = config or PerfConfig()
    if PERF.get(config.engine) == "fast" and fastpath.supports(workload):
        return fastpath.run_workload_fast(workload, organization, config)
    system = System(
        workload, organization, n_cores=config.n_cores, seed=config.seed
    )
    return system.run(
        config.instructions_per_core, warmup_instructions=config.warmup_instructions
    )


def run_comparison(
    organizations: Sequence[PerfOrganization],
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    baseline: PerfOrganization = BASELINE_ECC,
) -> List[WorkloadResult]:
    """Run every organization (plus the baseline) on every workload."""
    config = config or PerfConfig()
    profiles = (
        [profile(name) for name in workloads]
        if workloads is not None
        else list(SPEC2017_PROFILES)
    )
    out: List[WorkloadResult] = []
    for prof in profiles:
        base = run_workload(prof, baseline, config)
        entry = WorkloadResult(workload=prof.name, baseline=base)
        for org in organizations:
            entry.results[org.name] = run_workload(prof, org, config)
        out.append(entry)
    return out


def geomean_normalized(
    results: Sequence[WorkloadResult], org_name: str
) -> float:
    """Geometric-mean normalized performance across workloads."""
    logs = [math.log(r.normalized_performance(org_name)) for r in results]
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def geomean_slowdown_percent(
    results: Sequence[WorkloadResult], org_name: str
) -> float:
    """Geometric-mean slowdown in percent (the paper's headline numbers)."""
    return (1.0 - geomean_normalized(results, org_name)) * 100.0


@dataclass
class MultiSeedSummary:
    """Slowdown statistics across independent trace seeds."""

    org_name: str
    per_seed_slowdown_percent: List[float]

    @property
    def mean(self) -> float:
        values = self.per_seed_slowdown_percent
        return sum(values) / len(values) if values else 0.0

    @property
    def stdev(self) -> float:
        values = self.per_seed_slowdown_percent
        if len(values) < 2:
            return 0.0
        mean = self.mean
        return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
