"""The asyncio campaign server: shared result store + job front door.

One server process owns one local :class:`ResultStore` directory and
exposes it over the length-prefixed JSON protocol of
:mod:`repro.campaign.wire`, turning the store from a per-host cache into
a shared one: every ``load`` verifies the caller's *full* fingerprint
server-side (the exact :meth:`ResultStore.load` semantics — ``absent``/
``corrupt``/``stale`` rejection reporting included), and every ``store``
goes through the same atomic-write path and append-only index as a local
campaign.

Two coordination mechanisms ride on top of the raw store contract so
concurrent clients *divide* a grid instead of racing it:

- **claims** — a client about to compute a missing cell claims it
  first; a second client asking for the same cell is told it is
  ``inflight`` and can wait for the result instead of recomputing.
  Claims are tied to the claimant's connection: a client that dies
  releases its claims the moment its socket closes (waiters wake and
  re-claim), with a lease timeout as the backstop for wedged-but-alive
  clients.
- **jobs** — an async front door (``submit`` / ``job-status`` /
  ``job-results`` / ``watch``) that runs whole campaigns
  (``hammer-sweep`` / ``perf`` / ``faultsim``) server-side against the
  shared store, streaming progress events to any number of watchers.
  Jobs execute on an executor thread; the asyncio loop stays free to
  serve store traffic, which is exactly why the shared
  :class:`ServerActivity` counters below are mutated through
  ``ProgressBase.advance`` (thread-safe) rather than bare attribute
  writes.

Start one with ``python -m repro serve --store-dir DIR`` or embed a
:class:`BackgroundServer` (tests, smokes).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.campaign.progress import ProgressBase, resolve_workers
from repro.campaign.store import ResultStore, fingerprint_digest, summarize_index
from repro.campaign.wire import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    read_frame,
    write_frame,
)

#: Backstop claim lease: a claim older than this is re-grantable even if
#: the holder's connection is still open (wedged client). Connection
#: close releases claims immediately; this only catches the rest.
DEFAULT_LEASE_S = 600.0

#: Server-side cap on one blocking ``load(wait=...)``; clients loop.
WAIT_CAP_S = 30.0


@dataclass
class ServerActivity(ProgressBase):
    """Live request/job counters, mutated from several threads at once.

    The asyncio loop thread accounts store traffic while job executor
    threads account campaign completions — all through the thread-safe
    ``advance``/``update``/``snapshot`` the shared :class:`ProgressBase`
    provides. ``items_*``/``units_*`` denominate in requests so the
    inherited rate/describe machinery reads naturally.
    """

    items_done: int = 0
    items_total: int = 0
    items_from_store: int = 0
    units_done: int = 0
    units_total: int = 0
    elapsed_s: float = 0.0
    rejected_corrupt: int = 0
    rejected_stale: int = 0
    loads: int = 0
    stores: int = 0
    claims_granted: int = 0
    claims_denied: int = 0
    jobs_submitted: int = 0
    jobs_finished: int = 0
    jobs_failed: int = 0

    ITEM_NOUN = "request"
    RATE_NOUN = "requests"
    RATE_FMT = ",.1f"

    def _trailer(self) -> str:
        return (
            f"loads {self.loads} stores {self.stores} "
            f"jobs {self.jobs_finished}/{self.jobs_submitted}"
        )


def _progress_payload(snap) -> Dict[str, Any]:
    """Any campaign family's progress snapshot -> one wire-safe dict."""
    return {
        "items_done": int(snap.items_done),
        "items_total": int(snap.items_total),
        "items_from_store": int(snap.items_from_store),
        "units_done": int(snap.units_done),
        "units_total": int(snap.units_total),
        "elapsed_s": float(snap.elapsed_s),
        "describe": snap.describe(),
    }


# -- job kinds -------------------------------------------------------------------
#
# Each runs a whole campaign inside an executor thread, cells landing in
# the server's store directory so store clients and later jobs share
# them. Signature: (server, params, progress_callback) -> JSON results.


def _job_hammer_sweep(server: "CampaignServer", params: dict, progress):
    from repro.rowhammer import sweep

    cells = sweep.plan_sweep(
        attacks=tuple(params.get("attacks") or sweep.DEFAULT_ATTACKS),
        mitigations=tuple(params.get("mitigations") or sweep.DEFAULT_MITIGATIONS),
        schemes=tuple(params.get("schemes") or sweep.DEFAULT_SCHEMES),
        seeds=tuple(params.get("seeds") or (3,)),
    )
    outcomes = sweep.run_sweep(
        cells,
        workers=resolve_workers(params.get("workers"), config_workers=server.workers),
        cache_dir=server.store_dir,
        progress=progress,
    )
    return [outcomes[cell.key].to_json() for cell in cells]


def _job_perf(server: "CampaignServer", params: dict, progress):
    from repro.perf.campaign import run_comparison_parallel
    from repro.perf.model import PerfConfig, geomean_slowdown_percent
    from repro.perf.organizations import organization_for

    scheme = params.get("scheme", "safeguard-secded")
    org = organization_for(scheme, int(params.get("mac_latency", 8)))
    defaults = PerfConfig()
    config = PerfConfig(
        n_cores=int(params.get("n_cores", defaults.n_cores)),
        instructions_per_core=int(
            params.get("instructions_per_core", defaults.instructions_per_core)
        ),
        warmup_instructions=int(
            params.get("warmup_instructions", defaults.warmup_instructions)
        ),
        seed=int(params.get("seed", defaults.seed)),
        engine=params.get("engine"),
    )
    results = run_comparison_parallel(
        [org],
        workloads=params.get("workloads"),
        config=config,
        workers=resolve_workers(params.get("workers"), config_workers=server.workers),
        cache_dir=server.store_dir,
        progress=progress,
    )
    return {
        "scheme": scheme,
        "per_workload": [
            {"workload": r.workload, "slowdown_percent": r.slowdown_percent(org.name)}
            for r in results
        ],
        "geomean_slowdown_percent": geomean_slowdown_percent(results, org.name),
    }


def _job_faultsim(server: "CampaignServer", params: dict, progress):
    from repro.faultsim.evaluators import evaluator_for
    from repro.faultsim.geometry import X8_SECDED_16GB
    from repro.faultsim.montecarlo import MonteCarloConfig
    from repro.faultsim.parallel import simulate_parallel

    scheme = params.get("scheme", "safeguard-secded")
    seed = int(params.get("seed", 42))
    config = MonteCarloConfig(
        n_modules=int(params.get("n_modules", 2000)),
        seed=seed,
        engine=params.get("engine"),
    )
    geometry = X8_SECDED_16GB
    # Checkpoints keep their one-file-per-shard directory contract, so
    # each faultsim job gets a subdirectory, not the shared cell space.
    # It is keyed by the full science fingerprint (engine and geometry
    # included): jobs whose results differ must not overwrite each
    # other's shard files.
    fingerprint = config.science_fingerprint(scheme, geometry)
    checkpoint_dir = os.path.join(
        server.store_dir, f"faultsim-{fingerprint_digest(fingerprint)}"
    )
    result = simulate_parallel(
        evaluator_for(scheme, geometry),
        geometry,
        config,
        workers=resolve_workers(params.get("workers"), config_workers=server.workers),
        checkpoint_dir=checkpoint_dir,
        progress=progress,
    )
    return {
        "scheme": result.scheme,
        "n_modules": result.n_modules,
        "n_due": result.n_due,
        "n_sdc": result.n_sdc,
        "final_fail_probability": result.final_fail_probability,
        "probability_at_years": {
            str(y): result.probability_at_years(y) for y in range(1, 8)
        },
    }


JOB_KINDS = {
    "hammer-sweep": _job_hammer_sweep,
    "perf": _job_perf,
    "faultsim": _job_faultsim,
}


@dataclass
class _Job:
    job_id: str
    kind: str
    params: dict
    state: str = "queued"  # queued -> running -> done | error
    error: Optional[str] = None
    results: Any = None
    progress: Optional[Dict[str, Any]] = None
    watchers: List[asyncio.Queue] = field(default_factory=list)

    def describe(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "progress": self.progress,
        }


class CampaignServer:
    """One store directory served to many clients; see the module doc."""

    def __init__(
        self,
        store_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        lease_s: float = DEFAULT_LEASE_S,
    ):
        self.store_dir = store_dir
        self.store = ResultStore(store_dir)
        self.host = host
        self.port = port
        #: Default worker count for jobs that don't pin one (resolved
        #: through the standard precedence at job time).
        self.workers = workers
        self.lease_s = lease_s
        self.activity = ServerActivity()
        self.started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._claims: Dict[str, tuple] = {}  # cell -> (conn_id, deadline)
        self._events: Dict[str, asyncio.Event] = {}
        self._jobs: Dict[str, _Job] = {}
        self._job_tasks: Set[asyncio.Task] = set()
        self._next_conn = 0
        self._next_job = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        for task in list(self._job_tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        await self.start()
        print(
            f"campaign server on {self.host}:{self.port} "
            f"(store {self.store_dir!r}, jobs: {', '.join(sorted(JOB_KINDS))})",
            flush=True,
        )
        async with self._server:
            await self._server.serve_forever()

    # -- claim bookkeeping -------------------------------------------------------

    def _claim_holder(self, cell: str) -> Optional[int]:
        claim = self._claims.get(cell)
        if claim is None:
            return None
        conn_id, deadline = claim
        if deadline <= time.monotonic():
            del self._claims[cell]
            return None
        return conn_id

    def _release(self, cell: str) -> None:
        self._claims.pop(cell, None)
        event = self._events.pop(cell, None)
        if event is not None:
            event.set()

    def _release_connection(self, conn_id: int) -> None:
        for cell in [c for c, (cid, _) in self._claims.items() if cid == conn_id]:
            self._release(cell)

    # -- request handling --------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn_id = self._next_conn
        self._next_conn += 1
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except (ConnectionError, ValueError):
                    break
                if request is None:
                    break
                self.activity.advance(items_total=1, units_total=1)
                try:
                    response = await self._dispatch(conn_id, request, writer)
                except Exception as error:  # noqa: BLE001 - protocol boundary
                    response = {
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    }
                self.activity.advance(items_done=1, units_done=1)
                if response is not None:
                    try:
                        await write_frame(writer, response)
                    except (ConnectionError, OSError):
                        break
        finally:
            self._release_connection(conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: server shutdown raced this connection's
                # close; the handler is finished either way.
                pass

    async def _dispatch(self, conn_id: int, request: dict, writer):
        op = request.get("op")
        if op == "ping":
            return {
                "ok": True,
                "version": PROTOCOL_VERSION,
                "store_dir": self.store_dir,
                "uptime_s": time.monotonic() - self.started,
            }
        if op == "load":
            return await self._op_load(conn_id, request)
        if op == "release":
            cell = str(request["cell"])
            if self._claim_holder(cell) == conn_id:
                self._release(cell)
            return {"ok": True}
        if op == "store":
            return self._op_store(request)
        if op == "status":
            return {"ok": True, "summary": summarize_index(self.store_dir)}
        if op == "stats":
            return self._op_stats()
        if op == "submit":
            return self._op_submit(request)
        if op == "job-status":
            job = self._jobs.get(str(request.get("job")))
            if job is None:
                return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
            return {"ok": True, **job.describe()}
        if op == "job-results":
            job = self._jobs.get(str(request.get("job")))
            if job is None:
                return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
            if job.state != "done":
                return {"ok": False, "error": f"job {job.job_id} is {job.state}"}
            return {"ok": True, "job": job.job_id, "results": job.results}
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [job.describe() for job in self._jobs.values()],
            }
        if op == "watch":
            return await self._op_watch(request, writer)
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _op_load(self, conn_id: int, request: dict):
        cell = str(request["cell"])
        fingerprint = request["fingerprint"]
        result, reason = self.store.load(cell, fingerprint)
        if (
            reason == "absent"
            and request.get("wait")
            and self._claim_holder(cell) not in (None, conn_id)
        ):
            event = self._events.setdefault(cell, asyncio.Event())
            wait_s = min(float(request.get("wait_s", 5.0)), WAIT_CAP_S)
            try:
                await asyncio.wait_for(event.wait(), timeout=wait_s)
            except asyncio.TimeoutError:
                pass
            result, reason = self.store.load(cell, fingerprint)
        counters = {"loads": 1}
        if reason is None:
            counters["items_from_store"] = 1
        elif reason == "corrupt":
            counters["rejected_corrupt"] = 1
        elif reason == "stale":
            counters["rejected_stale"] = 1
        response = {"ok": True, "result": result, "reason": reason}
        if reason is not None and request.get("claim"):
            # Claim in the same step as the miss: no other request runs
            # in between, so a result another client stores after this
            # load is never computed a second time here.
            granted = self._claim_holder(cell) in (None, conn_id)
            if granted:
                self._claims[cell] = (conn_id, time.monotonic() + self.lease_s)
            counters["claims_granted" if granted else "claims_denied"] = 1
            response["granted"] = granted
        self.activity.advance(**counters)
        return response

    def _op_store(self, request: dict):
        self.store.store(
            str(request["cell"]),
            request["fingerprint"],
            request.get("result"),
            campaign=request.get("campaign"),
            key=request.get("key"),
            failures=int(request.get("failures", 0)),
        )
        # The result exists now: whoever held the claim, drop it and
        # wake every load(wait=...) parked on this cell.
        self._release(str(request["cell"]))
        self.activity.advance(stores=1)
        return {"ok": True}

    def _op_stats(self):
        self.activity.update(elapsed_s=time.monotonic() - self.started)
        snapshot = asdict(self.activity.snapshot())
        return {
            "ok": True,
            "activity": snapshot,
            "describe": self.activity.snapshot().describe(),
            "claims": len(self._claims),
            "jobs": {
                state: sum(1 for j in self._jobs.values() if j.state == state)
                for state in ("queued", "running", "done", "error")
            },
        }

    # -- jobs --------------------------------------------------------------------

    def _op_submit(self, request: dict):
        kind = str(request.get("kind"))
        if kind not in JOB_KINDS:
            return {
                "ok": False,
                "error": f"unknown job kind {kind!r}; known: "
                f"{', '.join(sorted(JOB_KINDS))}",
            }
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return {"ok": False, "error": "params must be an object"}
        job = _Job(job_id=f"job-{self._next_job:04d}", kind=kind, params=params)
        self._next_job += 1
        self._jobs[job.job_id] = job
        self.activity.advance(jobs_submitted=1)
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return {"ok": True, "job": job.job_id, "state": job.state}

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        self._notify(job, {"event": "state", **job.describe()})

        def on_progress(snap) -> None:  # called from the executor thread
            payload = _progress_payload(snap)
            loop.call_soon_threadsafe(self._job_progress, job, payload)

        try:
            job.results = await loop.run_in_executor(
                None, JOB_KINDS[job.kind], self, job.params, on_progress
            )
            job.state = "done"
            self.activity.advance(jobs_finished=1)
        except asyncio.CancelledError:  # server shutdown
            job.state = "error"
            job.error = "server shut down"
            raise
        except Exception as error:  # noqa: BLE001 - job boundary
            job.state = "error"
            job.error = f"{type(error).__name__}: {error}"
            self.activity.advance(jobs_finished=1, jobs_failed=1)
        finally:
            self._notify(job, {"event": "end", **job.describe()})

    def _job_progress(self, job: _Job, payload: Dict[str, Any]) -> None:
        job.progress = payload
        self._notify(job, {"event": "progress", "job": job.job_id, **payload})

    def _notify(self, job: _Job, event: Dict[str, Any]) -> None:
        for queue in list(job.watchers):
            queue.put_nowait(event)

    async def _op_watch(self, request: dict, writer):
        job = self._jobs.get(str(request.get("job")))
        if job is None:
            return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
        queue: asyncio.Queue = asyncio.Queue()
        job.watchers.append(queue)
        try:
            await write_frame(writer, {"ok": True, **job.describe()})
            if job.state in ("done", "error"):
                await write_frame(writer, {"event": "end", **job.describe()})
                return None
            while True:
                event = await queue.get()
                await write_frame(writer, event)
                if event.get("event") == "end":
                    return None
        finally:
            if queue in job.watchers:
                job.watchers.remove(queue)


class BackgroundServer:
    """A :class:`CampaignServer` on a daemon thread (tests and smokes).

    ``start()`` blocks until the listening port is known; ``stop()``
    shuts the loop down. Usable as a context manager.
    """

    def __init__(self, store_dir: str, **kwargs):
        self.server = CampaignServer(store_dir, **kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="campaign-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("campaign server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"campaign server failed: {self._error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup failures
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=15.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_server(
    store_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: Optional[int] = None,
) -> None:
    """Blocking entry point for ``python -m repro serve``."""
    server = CampaignServer(store_dir, host=host, port=port, workers=workers)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
