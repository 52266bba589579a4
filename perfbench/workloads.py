"""The three benchmark workloads, each a campaign the repository runs.

Each workload plans its grid from the benchmark seed, runs one *pass*
(every cell through the campaign engine against a given store), checks
the outputs, and renders every simulated statistic as canonical JSON for
the digest. The harness (:mod:`run`) decides what a pass means: a cold
pass gets emptied memos and a fresh store, a resume pass re-runs the grid
against the store the cold pass filled.

- ``perf-fig7`` — the Figure 7 grid as ``python -m repro fig7 --engine
  fast --cache-dir DIR`` runs it, at two trace seeds: 8 SPEC-like
  profiles x {conventional ECC, SafeGuard-SECDED} x 2 seeds, 4 cores,
  150K instructions per core, in-process with a local store. Mixes
  read-heavy (mcf, omnetpp) and write-heavy (lbm, roms) profiles;
  touches only ``perf`` and ``campaign``.
- ``playbook-grid`` — the whole attack-playbook library (10 scenarios,
  12 variants) x 4 mitigations x 8 schemes at one seed: 384 cells in 40
  groups, one in-process worker (two pool workers in the traced run's
  fan-out pass), every cell stored through a localhost
  campaign server (the ``--store-url`` path). Attack simulation drives
  the controller write and read paths and the MAC; never touches
  ``perf`` or ``faultsim``.
- ``reliability-mc`` — Monte-Carlo Figures 6 and 10 under the fast
  engine, in-process with checkpoint directories: Figure 6 at 1M modules
  (vectorized single-fault lookup dominates) and Figure 10 at 40K modules
  and 1x/10x FIT (the scalar multi-fault loop dominates), sized so the
  two halves take comparable time.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Set

#: Default benchmark seed and the held-out seed the self-tests check.
DEFAULT_SEED = 3
HELD_OUT_SEED = 11

#: Figure 7 profiles and scale (the CLI's ``fig7`` grid, pinned here so a
#: change to the CLI's defaults cannot silently resize the benchmark).
FIG7_WORKLOADS = ("perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms")
FIG7_INSTRUCTIONS = 150_000
FIG7_WARMUP = 40_000
#: Trace seeds per run. One seed's gmean slowdown scatters by ~0.4
#: points around ~0.6 % (the model's row/bank-alignment chaos; see
#: ``run_comparison_multiseed``), so a single seed leaves the output
#: band on some seeds (seed 31: -0.57 %); the check applies to the mean
#: over these seeds, the way the repository quotes headline numbers.
FIG7_SEEDS = 2

#: Playbook activation budget: every seed tried from 0 to 31 shows silent
#: corruption in the conventional schemes at this budget, so the output
#: check can tell schemes apart.
PLAYBOOK_BUDGET = 4000
PLAYBOOK_WORKERS = 2

#: Monte-Carlo population sizes and shards per scheme.
FIG6_MODULES = 1_000_000
FIG10_MODULES = 40_000
FIG10_FIT_MULTIPLIERS = (1.0, 10.0)
MC_SHARDS = 4

#: Schemes whose cells must never consume a silent corruption, and the
#: conventional schemes that must show some (so the check can fail).
SAFEGUARD_PREFIX = "safeguard-"
ENCRYPTED_SAFEGUARD = "encrypted-safeguard-secded"
CONVENTIONAL = ("secded", "chipkill")


class Tally:
    """Collects the last progress snapshot of every campaign in a pass."""

    def __init__(self) -> None:
        self._last: List = []

    def watch(self):
        slot = len(self._last)
        self._last.append(None)

        def callback(snapshot) -> None:
            self._last[slot] = snapshot

        return callback

    @property
    def from_store(self) -> int:
        return sum(s.items_from_store for s in self._last if s is not None)

    @property
    def rejected(self) -> int:
        return sum(
            s.rejected_corrupt + s.rejected_stale for s in self._last if s is not None
        )


class Workload:
    """One benchmark workload; subclasses fill in the campaign calls."""

    name = ""
    #: Worker processes of the fan-out pass that ``--trace 1`` times for
    #: ``campaign.fanout_efficiency``; timed end-to-end passes use one.
    workers = 1
    #: Cells in one pass.
    n_cells = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._stores = 0

    def setup(self) -> None:
        """Plan the grid and warm process-wide lazily built tables."""

    def close(self) -> None:
        """Release whatever :meth:`setup` or :meth:`fresh_store` started."""

    def reset_memos(self) -> None:
        """Empty the result memos a new CLI invocation would not have."""

    def fresh_store(self):
        """A new, empty store for one cold pass (and its resumes)."""
        self._stores += 1
        path = os.path.join(self.workdir, f"store-{self._stores}")
        os.makedirs(path)
        return path

    def release_store(self, store) -> None:
        """Give back a store from :meth:`fresh_store`."""

    def run(self, store, workers: int, tally: Tally):
        """One pass over every cell; returns the workload's result."""
        raise NotImplementedError

    def failed_cells(self, result) -> Set[str]:
        """Cells whose outputs fail the workload's checks."""
        raise NotImplementedError

    def statistics(self, result) -> Dict[str, object]:
        """Every simulated statistic, JSON-able, keyed by cell."""
        raise NotImplementedError


class PerfFig7(Workload):
    name = "perf-fig7"

    def setup(self) -> None:
        from repro.experiments import perf_figures
        from repro.perf.model import PerfConfig

        self.seeds = [FIG7_SEEDS * self.seed + i for i in range(FIG7_SEEDS)]
        self.n_cells = 2 * len(FIG7_WORKLOADS) * len(self.seeds)
        self.config = PerfConfig(
            n_cores=4,
            instructions_per_core=FIG7_INSTRUCTIONS,
            warmup_instructions=FIG7_WARMUP,
        )
        perf_figures.run_fig7(
            workloads=FIG7_WORKLOADS[:1],
            config=dataclasses.replace(
                self.config, instructions_per_core=2000, warmup_instructions=500
            ),
            engine="fast",
            workers=1,
        )
        self.reset_memos()

    def reset_memos(self) -> None:
        from repro.perf import fastpath

        fastpath._CONTENT_MEMO.clear()

    def run(self, store, workers: int, tally: Tally):
        from repro.experiments import perf_figures

        return {
            seed: perf_figures.run_fig7(
                workloads=FIG7_WORKLOADS,
                config=dataclasses.replace(self.config, seed=seed),
                engine="fast",
                workers=workers,
                cache_dir=store,
                progress=tally.watch(),
            )
            for seed in self.seeds
        }

    def failed_cells(self, figures) -> Set[str]:
        # bench_fig7_perf_secded.py's band (paper: 0.7 % average, 3.6 %
        # worst case), on the mean gmean over the seeds.
        gmeans = []
        worst = 0.0
        for figure in figures.values():
            org = figure.organizations[0]
            gmeans.append(figure.gmean_slowdowns()[org])
            worst = max([worst] + [r.slowdown_percent(org) for r in figure.results])
        if -0.5 < sum(gmeans) / len(gmeans) < 3.0 and worst < 8.0:
            return set()
        return set(self.statistics(figures))

    def statistics(self, figures) -> Dict[str, object]:
        out = {}
        for seed, figure in figures.items():
            for row in figure.results:
                out[f"seed{seed}/{row.workload}/baseline"] = row.baseline.to_json()
                for org, result in row.results.items():
                    out[f"seed{seed}/{row.workload}/{org}"] = result.to_json()
        return out


class PlaybookGrid(Workload):
    name = "playbook-grid"
    workers = PLAYBOOK_WORKERS
    _store = _server = None

    def setup(self) -> None:
        from repro.rowhammer import playbook

        self.config = playbook.PlaybookConfig(budget=PLAYBOOK_BUDGET)
        self.cells = playbook.plan_playbook(seeds=(self.seed,), config=self.config)
        self.n_cells = len(self.cells)
        warm = playbook.PlaybookConfig(budget=500)
        playbook.run_playbook(
            playbook.plan_playbook(
                scenarios=[self.cells[0].scenario],
                mitigations=("none",),
                seeds=(self.seed,),
                config=warm,
            ),
            warm,
            workers=1,
        )
        self.reset_memos()
        # The first pass's server starts here, as part of set-up.
        self._store = self._serve()

    def _serve(self):
        from repro.campaign import BackgroundServer, RemoteResultStore

        self._server = BackgroundServer(super().fresh_store()).start()
        return RemoteResultStore(self._server.url)

    def fresh_store(self):
        if self._store is None:
            self._store = self._serve()
        return self._store

    def release_store(self, store) -> None:
        store.close()
        self._server.stop()
        self._store = self._server = None

    def close(self) -> None:
        if self._store is not None:
            self.release_store(self._store)

    def reset_memos(self) -> None:
        from repro.rowhammer import playbook

        playbook._PLAYBOOK_MEMO.clear()

    def run(self, store, workers: int, tally: Tally):
        from repro.rowhammer import playbook

        return playbook.run_playbook(
            self.cells,
            self.config,
            workers=workers,
            store=store,
            progress=tally.watch(),
        )

    def failed_cells(self, outcomes) -> Set[str]:
        failed = {
            _key(key)
            for key, outcome in outcomes.items()
            if (
                outcome.scheme.startswith(SAFEGUARD_PREFIX)
                or outcome.scheme == ENCRYPTED_SAFEGUARD
            )
            and outcome.silent_corruptions > 0
        }
        conventional = [o for o in outcomes.values() if o.scheme in CONVENTIONAL]
        if not any(o.silent_corruptions for o in conventional):
            failed |= {
                _key(key) for key, o in outcomes.items() if o.scheme in CONVENTIONAL
            }
        return failed

    def statistics(self, outcomes) -> Dict[str, object]:
        return {_key(key): outcome.to_json() for key, outcome in outcomes.items()}


class ReliabilityMC(Workload):
    name = "reliability-mc"

    def setup(self) -> None:
        from repro.experiments import fig6_reliability_secded as fig6
        from repro.experiments import fig10_reliability_chipkill as fig10
        from repro.faultsim.evaluators import evaluator_for
        from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB
        from repro.faultsim.montecarlo import MonteCarloConfig

        # (figure, scheme, FIT multiplier) -> (evaluator, geometry, config)
        self.runs = {}
        for name in fig6.SCHEMES:
            self.runs[("fig6", name, 1.0)] = (
                evaluator_for(name, X8_SECDED_16GB),
                X8_SECDED_16GB,
                MonteCarloConfig(n_modules=FIG6_MODULES, seed=self.seed, engine="fast"),
            )
        for multiplier in FIG10_FIT_MULTIPLIERS:
            for name in fig10.SCHEMES:
                self.runs[("fig10", name, multiplier)] = (
                    evaluator_for(name, X4_CHIPKILL_16GB),
                    X4_CHIPKILL_16GB,
                    MonteCarloConfig(
                        n_modules=FIG10_MODULES,
                        seed=self.seed,
                        fit_multiplier=multiplier,
                        engine="fast",
                    ),
                )
        self.n_cells = MC_SHARDS * len(self.runs)
        from repro.faultsim.parallel import simulate_parallel

        for evaluator, geometry, config in self.runs.values():
            simulate_parallel(
                evaluator,
                geometry,
                dataclasses.replace(config, n_modules=2000),
                workers=1,
            )

    def run(self, store, workers: int, tally: Tally):
        from repro.faultsim.parallel import simulate_parallel

        out = {}
        for (figure, name, multiplier), (evaluator, geometry, config) in self.runs.items():
            out[(figure, name, multiplier)] = simulate_parallel(
                evaluator,
                geometry,
                config,
                workers=workers,
                shards=MC_SHARDS,
                checkpoint_dir=os.path.join(store, f"{figure}-{name}-{multiplier:g}x"),
                progress=tally.watch(),
            )
        return out

    def failed_cells(self, results) -> Set[str]:
        failed: Set[str] = set()
        secded = results[("fig6", "secded", 1.0)]
        no_parity = results[("fig6", "safeguard-secded-noparity", 1.0)]
        with_parity = results[("fig6", "safeguard-secded", 1.0)]
        # bench_fig6_reliability_secded.py: ~1.25x without column parity,
        # virtually identical with it, and SafeGuard never fails silently.
        ratio = no_parity.n_failed / max(1, secded.n_failed)
        parity_ratio = with_parity.n_failed / max(1, secded.n_failed)
        if not (
            no_parity.n_failed > secded.n_failed
            and 1.05 < ratio < 1.6
            and parity_ratio < 1.15
            and no_parity.n_sdc == 0
            and with_parity.n_sdc == 0
        ):
            failed |= self._cells("fig6")
        # bench_fig10_reliability_chipkill.py: matching correction
        # reliability at both FIT rates, no SafeGuard SDC, 10x > 1x.
        ok = True
        for multiplier in FIG10_FIT_MULTIPLIERS:
            chipkill = results[("fig10", "chipkill", multiplier)]
            safeguard = results[("fig10", "safeguard-chipkill", multiplier)]
            tolerance = max(5, int(chipkill.n_failed * 0.15))
            ok &= abs(safeguard.n_failed - chipkill.n_failed) <= tolerance
            ok &= safeguard.n_sdc == 0
        ok &= (
            results[("fig10", "chipkill", 10.0)].n_failed
            > results[("fig10", "chipkill", 1.0)].n_failed
        )
        if not ok:
            failed |= self._cells("fig10")
        return failed

    def _cells(self, figure: str) -> Set[str]:
        return {
            f"{fig}/{name}/{multiplier:g}x/shard{shard}"
            for fig, name, multiplier in self.runs
            if fig == figure
            for shard in range(MC_SHARDS)
        }

    def statistics(self, results) -> Dict[str, object]:
        return {
            f"{figure}/{name}/{multiplier:g}x": dataclasses.asdict(result)
            for (figure, name, multiplier), result in results.items()
        }


def _key(key) -> str:
    return "/".join(str(part) for part in key)


WORKLOADS = {cls.name: cls for cls in (PerfFig7, PlaybookGrid, ReliabilityMC)}


def create(name: str, seed: int, workdir: str) -> Optional[Workload]:
    cls = WORKLOADS.get(name)
    return cls(seed, workdir) if cls is not None else None
