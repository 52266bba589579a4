"""The domain-generic campaign executor.

A *campaign* is a grid of independent, deterministic work items — Monte
Carlo shards, performance cells, Row-Hammer playbook points — each fully
described by a science fingerprint. This module owns every mechanism
those campaigns share, exactly once:

- **store scan** — verified results load from the :class:`ResultStore`
  (rejections counted by reason) so a killed campaign resumes; stores
  that coordinate several clients (:class:`repro.campaign.client.
  RemoteResultStore`) may answer ``"inflight"`` — *another client is
  computing this cell* — and those items are awaited after the local
  batch instead of recomputed;
- **fan-out** — pending items go to worker processes as *groups*
  (``Campaign.group_key``), so engines whose items share expensive
  per-process state (the perf engine's memoized content pass, the
  playbook's per-attack simulation) keep that sharing under any worker
  count. Two schedulers implement the fan-out: ``"pool"`` (a
  ``ProcessPoolExecutor`` round per retry attempt, the historical
  default) and ``"steal"`` (persistent workers pulling groups from a
  shared queue with heartbeat/timeout supervision; see
  :mod:`repro.campaign.scheduler`);
- **retry** — a worker crash (``BrokenProcessPool`` under the pool
  scheduler, a dead or hung worker process under the stealing one)
  re-runs the unfinished groups with a bounded per-group attempt
  budget, charged to the groups that were running when the worker
  died, not to those still queued; a group that keeps killing workers
  eventually raises :class:`CampaignError`. Pool-scheduler retry rounds back off
  exponentially with bounded, seedable jitter so simultaneous retries
  against a shared store don't stampede it. Deterministic exceptions
  raised *by* an item propagate immediately (retrying them cannot
  help);
- **determinism** — results are keyed by item index, every item is a
  pure function of its fingerprint, and loaded cells are verified in
  full, so the returned mapping is bit-identical for any worker count,
  any scheduler, and any completion/steal order;
- **progress** — a :class:`CampaignProgress` snapshot after every
  completed or store-loaded item.

Domain engines subclass :class:`Campaign` and stay thin: identity
(key/fingerprint/file name), the ``run_item`` payload, and result
(de)serialization. The campaign object is pickled to workers, so it
should carry shared configuration only; bulky per-item inputs belong on
the items themselves.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.campaign.progress import CampaignProgress
from repro.campaign.store import ResultStore, fingerprint_digest
from repro.switches import SCHEDULER


class CampaignError(RuntimeError):
    """A work group exhausted its crash-retry budget."""


class Campaign:
    """Domain contract for one campaign family.

    Required: :meth:`fingerprint` and :meth:`run_item`. Everything else
    has a sensible default. Instances must be picklable (they travel to
    pool workers) and ``run_item`` must be deterministic in the item's
    fingerprint — that is what makes the store sound and the output
    worker-count-invariant.
    """

    #: Campaign family name, recorded in the store's append-only index.
    name = "campaign"

    # -- identity ----------------------------------------------------------------

    def fingerprint(self, item) -> dict:
        """Everything that determines the item's result, as a JSON dict."""
        raise NotImplementedError

    def item_key(self, item) -> Any:
        """JSON-able stable identity recorded in the index."""
        key = getattr(item, "key", None)
        return list(key) if isinstance(key, tuple) else (key if key is not None else item.index)

    def cell_name(self, item, fingerprint: dict) -> str:
        """Store file name for the item (must be unique per campaign)."""
        return f"{self.name}-{fingerprint_digest(fingerprint)}.json"

    def group_key(self, item) -> Hashable:
        """Items with equal keys run in the same worker task (one by
        default: no grouping)."""
        return item.index

    # -- execution ---------------------------------------------------------------

    def run_item(self, item) -> Any:
        """Compute one item's result (executes inside a worker)."""
        raise NotImplementedError

    # -- persistence -------------------------------------------------------------

    def serialize_result(self, item, result) -> Any:
        """Result -> JSON-able payload (identity by default)."""
        return result

    def deserialize_result(self, item, payload) -> Any:
        """JSON payload -> result (identity by default). Raising
        ``ValueError``/``KeyError``/``TypeError`` marks the cell corrupt
        and recomputes it."""
        return payload

    # -- progress accounting -----------------------------------------------------

    def item_units(self, item) -> int:
        """Work units the item represents (rate/ETA denomination)."""
        return 1

    def result_failures(self, result) -> int:
        """Failure events in a result (surfaced in progress snapshots
        and recorded on the store's index entries)."""
        return 0


#: Pool round flags, one byte per group (0 while it is queued).
_RUNNING, _RAN = 1, 2

#: A pool worker's view of its round's flags (set by the pool
#: initializer).
_ROUND_FLAGS = None


def _note_round(flags) -> None:
    """Pool initializer: keep the round's shared group flags."""
    global _ROUND_FLAGS
    _ROUND_FLAGS = flags


def _run_group(campaign: Campaign, items: Sequence[Any]) -> List[Any]:
    """Worker entry point (module-level so it pickles): one group."""
    return [(item.index, campaign.run_item(item)) for item in items]


def _run_flagged_group(campaign: Campaign, items: Sequence[Any], slot: int) -> List[Any]:
    """Pool-round entry point: one group, its ``slot`` flagged while it
    runs, so a broken round is charged only to the groups that were
    running when the pool died."""
    _ROUND_FLAGS[slot] = _RUNNING
    pairs = _run_group(campaign, items)
    _ROUND_FLAGS[slot] = _RAN
    return pairs


def resolve_scheduler(scheduler: Optional[str] = None) -> str:
    """The fan-out scheduler (:data:`repro.switches.SCHEDULER`): ``"pool"``
    (fresh executor per retry round) or ``"steal"`` (persistent
    work-stealing workers; :mod:`repro.campaign.scheduler`)."""
    return SCHEDULER.get(scheduler)


class _CampaignRun:
    """Shared bookkeeping for one campaign execution, whatever the
    scheduler: the store scan, per-item completion accounting (store
    write + progress snapshot), and the await loop for cells another
    client is computing."""

    def __init__(
        self,
        campaign: Campaign,
        items: Sequence[Any],
        *,
        store_dir: Optional[str],
        store,
        progress: Optional[Callable[[CampaignProgress], None]],
    ):
        self.campaign = campaign
        self.items = list(items)
        self.fingerprints = {
            item.index: campaign.fingerprint(item) for item in self.items
        }
        if store is None and store_dir:
            store = ResultStore(store_dir)
        self.store = store
        self.progress = progress
        self.results: Dict[int, Any] = {}
        self.state = {
            "from_store": 0,
            "units_done": 0,
            "failures": 0,
            "rejected_corrupt": 0,
            "rejected_stale": 0,
        }
        self.units_total = sum(campaign.item_units(item) for item in self.items)
        self.started = time.monotonic()

    def report(self) -> None:
        if self.progress is None:
            return
        self.progress(
            CampaignProgress(
                items_done=len(self.results),
                items_total=len(self.items),
                items_from_store=self.state["from_store"],
                units_done=self.state["units_done"],
                units_total=self.units_total,
                failures=self.state["failures"],
                elapsed_s=time.monotonic() - self.started,
                rejected_corrupt=self.state["rejected_corrupt"],
                rejected_stale=self.state["rejected_stale"],
            )
        )

    def account(self, item, result) -> None:
        self.results[item.index] = result
        self.state["units_done"] += self.campaign.item_units(item)
        self.state["failures"] += self.campaign.result_failures(result)

    def cell_name(self, item) -> str:
        return self.campaign.cell_name(item, self.fingerprints[item.index])

    def _try_load(self, item, payload) -> Optional[Any]:
        """Deserialize a stored payload; ``None`` marks it corrupt."""
        try:
            return self.campaign.deserialize_result(item, payload)
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def scan(self) -> Tuple[List[Any], List[Any]]:
        """Load verified cells; returns ``(pending, inflight)`` items.

        ``inflight`` items are cells a coordinating store reported
        another client is currently computing; they are awaited via
        :meth:`await_inflight` after the local batch runs.
        """
        pending: List[Any] = []
        inflight: List[Any] = []
        for item in self.items:
            reason: Optional[str] = "absent"
            payload = None
            if self.store is not None:
                payload, reason = self.store.load(
                    self.cell_name(item), self.fingerprints[item.index]
                )
            if reason is None:
                result = self._try_load(item, payload)
                if result is None:
                    reason = "corrupt"
                else:
                    self.account(item, result)
                    self.state["from_store"] += 1
                    self.report()
                    continue
            if reason == "inflight" and hasattr(self.store, "load_wait"):
                inflight.append(item)
                continue
            if reason == "corrupt":
                self.state["rejected_corrupt"] += 1
            elif reason == "stale":
                self.state["rejected_stale"] += 1
            pending.append(item)
        return pending, inflight

    def await_inflight(self, inflight: Sequence[Any]) -> List[Any]:
        """Block on cells other clients were computing.

        Each waits until the cell is stored (a shared-store cache hit)
        or until this client wins the claim for it (the producer died or
        timed out) — those come back as a second pending batch.
        """
        pending: List[Any] = []
        for item in inflight:
            payload, reason = self.store.load_wait(
                self.cell_name(item), self.fingerprints[item.index]
            )
            result = self._try_load(item, payload) if reason is None else None
            if result is not None:
                self.account(item, result)
                self.state["from_store"] += 1
                self.report()
            else:
                pending.append(item)
        return pending

    def finish(self, item, result) -> None:
        """Account one computed item: store, index, progress."""
        self.account(item, result)
        if self.store is not None:
            fingerprint = self.fingerprints[item.index]
            self.store.store(
                self.cell_name(item),
                fingerprint,
                self.campaign.serialize_result(item, result),
                campaign=self.campaign.name,
                key=self.campaign.item_key(item),
                failures=self.campaign.result_failures(result),
            )
        self.report()


def run_campaign(
    campaign: Campaign,
    items: Sequence[Any],
    *,
    workers: int = 1,
    store_dir: Optional[str] = None,
    store=None,
    progress: Optional[Callable[[CampaignProgress], None]] = None,
    max_attempts: int = 3,
    backoff_s: float = 0.5,
    max_backoff_s: float = 4.0,
    backoff_jitter: float = 0.25,
    jitter_seed: Optional[int] = None,
    scheduler: Optional[str] = None,
) -> Dict[int, Any]:
    """Run every item; returns results keyed by ``item.index``.

    ``workers == 1`` runs items in-process in index order (no pool),
    which still exercises the store and progress reporting. The output
    mapping is independent of worker count, scheduler, and completion
    order.

    ``store`` accepts a ready store object (anything with the
    :class:`ResultStore` ``load``/``store`` contract — e.g. a
    :class:`repro.campaign.client.RemoteResultStore` sharing cells over
    the network); ``store_dir`` builds a local directory store.
    ``scheduler`` picks the fan-out strategy (``"pool"``/``"steal"``;
    default: :func:`resolve_scheduler`). Pool-scheduler crash
    retries back off exponentially, stretched by a bounded random
    jitter in ``[1, 1 + backoff_jitter]`` — seedable via
    ``jitter_seed`` so tests are deterministic — so simultaneous group
    retries don't stampede a shared store.
    """
    scheduler = resolve_scheduler(scheduler)
    run = _CampaignRun(
        campaign, items, store_dir=store_dir, store=store, progress=progress
    )

    def execute(batch: List[Any]) -> None:
        if not batch:
            return
        if workers == 1:
            for item in batch:
                run.finish(item, campaign.run_item(item))
        elif scheduler == "steal":
            from repro.campaign.scheduler import run_stealing

            run_stealing(
                campaign,
                batch,
                workers,
                run.finish,
                max_attempts=max_attempts,
            )
        else:
            _fan_out(
                campaign,
                batch,
                workers,
                run.finish,
                max_attempts=max_attempts,
                backoff_s=backoff_s,
                max_backoff_s=max_backoff_s,
                backoff_jitter=backoff_jitter,
                jitter_seed=jitter_seed,
            )

    pending, inflight = run.scan()
    execute(pending)
    if inflight:
        execute(run.await_inflight(inflight))
    return run.results


def _fan_out(
    campaign: Campaign,
    pending: Sequence[Any],
    workers: int,
    finish: Callable[[Any, Any], None],
    *,
    max_attempts: int,
    backoff_s: float,
    max_backoff_s: float,
    backoff_jitter: float = 0.25,
    jitter_seed: Optional[int] = None,
) -> None:
    """Pool fan-out with group scheduling and crash retry."""
    groups: Dict[Hashable, List[Any]] = {}
    for item in pending:
        groups.setdefault(campaign.group_key(item), []).append(item)

    rng = random.Random(jitter_seed)
    remaining = dict(groups)
    attempts = {key: 0 for key in groups}
    while remaining:
        order = list(remaining)
        # Lock-free shared flags: a worker killed mid-write holds nothing.
        flags = multiprocessing.get_context().RawArray("b", len(order))
        crashed = False
        with ProcessPoolExecutor(
            max_workers=min(workers, len(remaining)),
            initializer=_note_round,
            initargs=(flags,),
        ) as pool:
            futures = {}
            try:
                for slot, key in enumerate(order):
                    future = pool.submit(_run_flagged_group, campaign, remaining[key], slot)
                    futures[future] = key
            except BrokenExecutor:  # a worker died while groups were queued
                crashed = True
            outstanding = set(futures)
            while outstanding and not crashed:
                completed, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    key = futures[future]
                    try:
                        pairs = future.result()
                    except BrokenExecutor:
                        # The pool is dead; whatever is still in
                        # `remaining` (this group included) retries in a
                        # fresh pool. Groups already finished this round
                        # were removed, so nothing double-finishes.
                        crashed = True
                        continue
                    by_index = {item.index: item for item in remaining[key]}
                    for index, result in pairs:
                        finish(by_index[index], result)
                    del remaining[key]
        if not remaining:
            return
        if not crashed:  # pragma: no cover - defensive
            raise CampaignError("pool exited with unfinished groups")
        # Charge the round to the groups still running when the pool
        # broke: one that was queued, or that ran but lost its result to
        # the break, did not break it. If none was running, the cause is
        # unknown and every group is charged.
        running = [key for slot, key in enumerate(order) if flags[slot] == _RUNNING]
        for key in running or list(remaining):
            attempts[key] += 1
        exhausted = [key for key in remaining if attempts[key] >= max_attempts]
        if exhausted:
            raise CampaignError(
                f"campaign {campaign.name!r}: groups {exhausted!r} crashed "
                f"the worker pool {max_attempts} time(s); giving up"
            )
        retry = max(attempts[key] for key in remaining)
        base = min(backoff_s * (2 ** (retry - 1)), max_backoff_s)
        # Stretch (never shorten) by bounded jitter so simultaneous
        # retrying campaigns desynchronize instead of stampeding a
        # shared store in lock step.
        time.sleep(base * (1.0 + max(0.0, backoff_jitter) * rng.random()))
