"""Work-stealing campaign scheduler with hung-worker supervision.

The pool scheduler in :mod:`repro.campaign.engine` partitions groups
statically: each retry round submits every unfinished group to a fresh
``ProcessPoolExecutor`` and waits for the round to drain. That is simple
and correct, but a skewed grid (lbm/roms perf cells run 3–5x longer than
gcc cells) ends the round serialized on whichever worker drew the slow
groups while the others sit idle.

This module keeps ``workers`` *persistent* processes alive for the whole
campaign and lets each pull the next whole group from a shared queue the
moment it goes idle — work stealing at group granularity. Groups stay
atomic (the perf engine's content memo and the playbook's per-attack state
still share within a group); only their *placement* becomes dynamic, so
the slow groups overlap with many small ones instead of defining the
critical path.

Supervision rides on the result stream itself: every ``claim``/``item``/
``done`` message a worker sends doubles as a heartbeat. A worker that
dies (its result pipe reads end-of-file) or goes silent for
``heartbeat_timeout_s`` while holding a group is killed and replaced,
and its group is requeued with a bounded attempt budget — the stealing
analogue of the pool scheduler's ``BrokenProcessPool`` retry. Requeues
are safe to overlap with stale execution: results are deduplicated by
item index (first completion wins, and items are deterministic, so
"first" is also "only" in content).

Each worker sends on its own pipe, synchronously. A shared
``multiprocessing.Queue`` would not survive a hard worker death: its
writers share one cross-process lock, taken by a background feeder
thread, and a worker that exits while its feeder holds that lock leaves
every other worker unable to report again.

Determinism: results are keyed by item index and every item is a pure
function of its fingerprint, so the output mapping is bit-identical to
``run_campaign`` for any worker count and any steal order.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.campaign.engine import Campaign, CampaignError, _CampaignRun
from repro.campaign.progress import CampaignProgress

#: Seconds of message silence from a group-holding worker before it is
#: presumed hung, killed, and its group requeued. Item boundaries are
#: the heartbeat, so this must exceed the longest single item.
DEFAULT_HEARTBEAT_TIMEOUT_S = 300.0

#: Parent poll interval for the result stream / liveness checks.
DEFAULT_POLL_S = 0.05

#: Seconds the fleet must be simultaneously idle (with work nominally
#: outstanding) before unfinished groups are re-enqueued. Covers the
#: window where a worker is killed between drawing a task and sending
#: its claim — the task would otherwise be lost silently. An idle fleet
#: with outstanding groups can only mean drawn-and-lost tasks (idle
#: workers drain a live queue in milliseconds), so this recovery charges
#: the group's attempt budget exactly like an attributed crash; requeues
#: stay idempotent through the index dedupe.
_IDLE_REQUEUE_S = 2.0


def _worker_main(campaign: Campaign, task_q, channel) -> None:
    """Persistent worker: pull groups until the ``None`` sentinel.

    Messages on ``channel`` (this worker's own pipe) are
    ``(kind, group_key, payload)``: ``claim``/``done`` bracket a group,
    ``item`` carries one ``(index, result)``, ``error`` carries a
    deterministic exception (pre-checked picklable, else its traceback
    text). Every message is also a liveness heartbeat. Sends are
    synchronous, so a group's claim is delivered before any of its
    items run.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        key, items = task
        channel.send(("claim", key, None))
        try:
            for item in items:
                result = campaign.run_item(item)
                channel.send(("item", key, (item.index, result)))
            channel.send(("done", key, None))
        except BaseException as exc:  # deterministic failure: report, stay alive
            text = traceback.format_exc()
            try:
                pickle.dumps(exc)
                payload = (exc, text)
            except Exception:
                payload = (None, f"{exc!r}\n{text}")
            channel.send(("error", key, payload))


def _kill(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
        proc.kill()
        proc.join(timeout=2.0)


def run_stealing(
    campaign: Campaign,
    pending: Sequence[Any],
    workers: int,
    finish: Callable[[Any, Any], None],
    *,
    max_attempts: int = 3,
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    poll_s: float = DEFAULT_POLL_S,
    stats: Optional[Dict[str, int]] = None,
) -> None:
    """Run ``pending`` through persistent stealing workers.

    ``finish(item, result)`` is invoked in the parent exactly once per
    item (store write + progress accounting), in completion order.
    ``stats`` (if given) accumulates ``claims``/``requeues``/
    ``worker_deaths``/``replacements`` counters for tests and benches.
    """
    if stats is None:
        stats = {}
    for name in ("claims", "requeues", "worker_deaths", "replacements"):
        stats.setdefault(name, 0)

    groups: Dict[Hashable, List[Any]] = {}
    for item in pending:
        groups.setdefault(campaign.group_key(item), []).append(item)
    by_index = {item.index: item for item in pending}

    ctx = multiprocessing.get_context()
    task_q = ctx.Queue()
    for key, items in groups.items():
        task_q.put((key, items))

    unfinished = dict(groups)
    finished_indices: set = set()
    failures: Dict[Hashable, int] = {}
    procs: Dict[int, Any] = {}
    channels: Dict[int, Any] = {}
    held: Dict[int, Optional[Hashable]] = {}
    last_seen: Dict[int, float] = {}
    next_id = 0

    def spawn() -> None:
        nonlocal next_id
        wid = next_id
        next_id += 1
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(campaign, task_q, writer),
            daemon=True,
        )
        proc.start()
        # Only the worker holds the write end, so its death reads as EOF.
        writer.close()
        procs[wid] = proc
        channels[wid] = reader
        held[wid] = None
        last_seen[wid] = time.monotonic()

    def fail_worker(wid: int, why: str) -> None:
        _kill(procs.pop(wid))
        channels.pop(wid).close()
        key = held.pop(wid)
        last_seen.pop(wid)
        stats["worker_deaths"] += 1
        if key is not None and key in unfinished:
            failures[key] = failures.get(key, 0) + 1
            if failures[key] >= max_attempts:
                raise CampaignError(
                    f"campaign {campaign.name!r}: group {key!r} {why} "
                    f"{max_attempts} time(s); giving up"
                )
            task_q.put((key, groups[key]))
            stats["requeues"] += 1
        spawn()
        stats["replacements"] += 1

    for _ in range(min(workers, max(1, len(groups)))):
        spawn()

    idle_since: Optional[float] = None
    try:
        while unfinished:
            ready = set(wait(list(channels.values()), timeout=poll_s))
            for wid in [w for w, channel in channels.items() if channel in ready]:
                try:
                    kind, key, payload = channels[wid].recv()
                except (EOFError, OSError):
                    fail_worker(wid, "crashed its worker")
                    continue
                last_seen[wid] = time.monotonic()
                if kind == "claim":
                    held[wid] = key
                    stats["claims"] += 1
                elif kind == "item":
                    index, result = payload
                    # A requeued group can race its original worker;
                    # first completion wins (identical content anyway).
                    if index not in finished_indices:
                        finished_indices.add(index)
                        finish(by_index[index], result)
                elif kind == "done":
                    held[wid] = None
                    unfinished.pop(key, None)
                elif kind == "error":
                    exc, text = payload
                    if exc is not None:
                        raise exc
                    raise CampaignError(
                        f"campaign {campaign.name!r}: group {key!r} raised:\n{text}"
                    )
            if ready:
                idle_since = None
                continue

            now = time.monotonic()
            for wid in list(procs):
                if not procs[wid].is_alive():
                    fail_worker(wid, "crashed its worker")
                elif (
                    held[wid] is not None
                    and now - last_seen[wid] > heartbeat_timeout_s
                ):
                    fail_worker(wid, "hung past the heartbeat timeout")

            # Lost-task recovery: everyone idle yet groups outstanding
            # means a worker died between drawing a task and claiming it.
            if unfinished and all(held[wid] is None for wid in procs):
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > max(_IDLE_REQUEUE_S, 4 * poll_s):
                    for key in list(unfinished):
                        failures[key] = failures.get(key, 0) + 1
                        if failures[key] >= max_attempts:
                            raise CampaignError(
                                f"campaign {campaign.name!r}: group {key!r} "
                                f"was lost to dying workers {max_attempts} "
                                f"time(s); giving up"
                            )
                        task_q.put((key, groups[key]))
                        stats["requeues"] += 1
                    idle_since = None
            else:
                idle_since = None
    finally:
        for _ in procs:
            try:
                task_q.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        deadline = time.monotonic() + 2.0
        for proc in procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            _kill(proc)
        for channel in channels.values():
            channel.close()
        task_q.cancel_join_thread()


def run_campaign_stealing(
    campaign: Campaign,
    items: Sequence[Any],
    *,
    workers: int = 1,
    store_dir: Optional[str] = None,
    store=None,
    progress: Optional[Callable[[CampaignProgress], None]] = None,
    max_attempts: int = 3,
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    poll_s: float = DEFAULT_POLL_S,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[int, Any]:
    """Drop-in, bit-identical alternative to ``run_campaign``.

    Same store scan, resume, inflight-await, and progress semantics —
    only the fan-out strategy differs. ``workers == 1`` runs in-process,
    exactly like ``run_campaign``.
    """
    run = _CampaignRun(
        campaign, items, store_dir=store_dir, store=store, progress=progress
    )

    def execute(batch: List[Any]) -> None:
        if not batch:
            return
        if workers == 1:
            for item in batch:
                run.finish(item, campaign.run_item(item))
        else:
            run_stealing(
                campaign,
                batch,
                workers,
                run.finish,
                max_attempts=max_attempts,
                heartbeat_timeout_s=heartbeat_timeout_s,
                poll_s=poll_s,
                stats=stats,
            )

    pending, inflight = run.scan()
    execute(pending)
    if inflight:
        execute(run.await_inflight(inflight))
    return run.results
