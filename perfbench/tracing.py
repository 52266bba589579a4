"""Span tracing at the repository's layer boundaries, installed from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces the
entry points of each layer with timing wrappers for the duration of one
traced run and puts the originals back afterwards. Every call through a
wrapped entry point records one span::

    (span id, kind, start, end, parent span id, cell id, pass, thread, work)

``kind`` names the layer boundary (``core.read``, ``mac.compute``, ...),
the parent is the innermost enclosing span *of the same thread*, the cell
id (``"<campaign>:<item index>"``) ties every span of one campaign cell
together — store and wire spans included — and ``work`` carries a count
of units done where the boundary has one (lines MACed, modules drawn).
Spans stay in memory and are written out once, by :meth:`Tracer.dump`.

A span's *self time* is its duration minus the durations of its direct
children; per-layer seconds are sums of self time, so nested boundaries
(``LineMAC.verify`` calling ``LineMAC.compute``, an encrypted controller
wrapping a plain one) are never counted twice.

Counts are read at the same boundaries: controller statistics around
``access_many``, ``AttackResult.activations``, the perf engine's
``_BATCH_STATS`` around the content pass, and the fault-count arrays
handed to the Monte-Carlo range simulator.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span kinds and the layer each belongs to (the repository's modules).
KINDS = (
    "campaign.cell",
    "campaign.fingerprint",
    "campaign.serde",
    "campaign.store_load",
    "campaign.store_write",
    "campaign.wire",
    "perf.synthesis",
    "perf.content",
    "perf.timing",
    "rowhammer.attack",
    "rowhammer.victim",
    "core.write",
    "core.read",
    "mac.compute",
    "ecc.codec",
    "faultsim.draw",
    "faultsim.vector",
    "faultsim.scalar",
)
_KIND_ID = {kind: index for index, kind in enumerate(KINDS)}

# Span tuple fields.
SID, KIND, START, END, PARENT, CELL, PASS, THREAD, WORK = range(9)


@dataclass
class Point:
    """One wrapped entry point: ``owner.attr`` becomes a ``kind`` span.

    ``cell`` maps the call's arguments to a cell id (spans without one
    inherit the enclosing cell); ``work`` maps them to a unit count;
    ``before``/``after`` read counters around the call.
    """

    owner: Any
    attr: str
    kind: str
    cell: Optional[Callable[..., Optional[str]]] = None
    work: Optional[Callable[..., int]] = None
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.pass_no = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._cell_names: Dict[str, str] = {}
        self._saved: List[tuple] = []

    # -- recording -----------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.cell = None
        return local

    def cell_id(self, campaign, item) -> str:
        return f"{campaign.name}:{item.index}"

    def note_cell_name(self, name: str, cell: str) -> None:
        self._cell_names[name] = cell

    def cell_of_name(self, name: str) -> str:
        return self._cell_names.get(name, name)

    def _wrap(self, point: Point, fn: Callable) -> Callable:
        kind = _KIND_ID[point.kind]
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        state, main = self._state, self._main
        cell_of, work_of = point.cell, point.work
        before, after = point.before, point.after
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            outer_cell = local.cell
            cell = cell_of(*args, **kwargs) if cell_of is not None else outer_cell
            local.cell = cell
            stack.append(sid)
            token = before(*args, **kwargs) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.cell = outer_cell
                spans.append(
                    (
                        sid,
                        kind,
                        start,
                        end,
                        parent,
                        cell,
                        tracer.pass_no,
                        0 if threading.get_ident() == main else 1,
                        work_of(*args, **kwargs) if work_of is not None else 0,
                    )
                )
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        return wrapper

    # -- installation --------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._saved.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, points: List[Point]) -> None:
        """Wrap every point; :meth:`uninstall` restores the originals."""
        for point in points:
            self.patch(
                point.owner, point.attr, self._wrap(point, getattr(point.owner, point.attr))
            )

    def uninstall(self) -> None:
        for owner, attr, owned, original in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self time (seconds) per span kind."""
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = dict.fromkeys(KINDS, 0.0)
        for span in self.spans:
            out[KINDS[span[KIND]]] += span[END] - span[START] - child.get(span[SID], 0.0)
        return out

    def durations(self, kind: str, pass_no: Optional[int] = None) -> List[float]:
        """Durations (seconds) of every ``kind`` span, optionally of one pass."""
        index = _KIND_ID[kind]
        return [
            span[END] - span[START]
            for span in self.spans
            if span[KIND] == index and (pass_no is None or span[PASS] == pass_no)
        ]

    def outermost_work(self, kind: str, inside: Optional[str] = None) -> int:
        """Work units of ``kind`` spans not nested in another ``kind`` span,
        optionally only those with an ``inside`` span among their ancestors."""
        index = _KIND_ID[kind]
        inside_index = _KIND_ID[inside] if inside is not None else None
        by_id = {span[SID]: span for span in self.spans}
        total = 0
        for span in self.spans:
            if span[KIND] != index:
                continue
            parent = by_id.get(span[PARENT])
            if parent is not None and parent[KIND] == index:
                continue
            if inside_index is not None:
                while parent is not None and parent[KIND] != inside_index:
                    parent = by_id.get(parent[PARENT])
                if parent is None:
                    continue
            total += span[WORK]
        return total

    def top_level_seconds(self, pass_no: int) -> float:
        """Main-thread time covered by spans with no parent in one pass."""
        return sum(
            span[END] - span[START]
            for span in self.spans
            if span[PARENT] < 0 and span[THREAD] == 0 and span[PASS] == pass_no
        )

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, one JSON list per line after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            header = dict(meta, kinds=list(KINDS), fields=[
                "id", "kind", "start_s", "end_s", "parent", "cell", "pass",
                "thread", "work",
            ])
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


# -- the instrumented boundaries ---------------------------------------------------


def points(tracer: Tracer) -> List[Point]:
    """Every layer entry point the traced run wraps."""
    from repro.campaign.client import RemoteResultStore
    from repro.campaign.store import ResultStore
    from repro.core.encrypted import EncryptedController
    from repro.core.pipeline import MemoryController
    from repro.ecc.chipkill import ChipkillCode
    from repro.ecc.secded import LineECC1, WordSECDEDLine
    from repro.faultsim import fastpath as faultsim_fast
    from repro.faultsim import montecarlo, parallel
    from repro.mac.linemac import LineMAC
    from repro.perf import fastpath as perf_fast
    from repro.rowhammer.integration import VictimArray
    from repro.rowhammer.runner import AttackRunner

    counts = tracer.counts

    def item_cell(campaign, item, *args, **kwargs):
        return tracer.cell_id(campaign, item)

    def named_cell(store, cell_name, *args, **kwargs):
        return tracer.cell_of_name(cell_name)

    def cell_done(token, result, campaign, item):
        counts[f"{campaign.name}.cells"] += 1

    def content_before(*args, **kwargs):
        return dict(perf_fast._BATCH_STATS)

    def content_after(token, result, *args, **kwargs):
        stats = perf_fast._BATCH_STATS
        computed = (stats["batched"] - token["batched"]) + (
            stats["fallbacks"] - token["fallbacks"]
        )
        counts["perf.content_passes"] += 1
        counts["perf.content_hits"] += int(result is not None and computed == 0)
        counts["perf.content_computed"] += int(result is None or computed > 0)
        counts["perf.content_fallbacks"] += stats["fallbacks"] - token["fallbacks"]

    def timing_after(token, result, content, prof, organization, config, *a, **k):
        counts["perf.timing_events"] += sum(table.n_ev for table in content.events)
        counts["perf.instructions"] += content.n_cores * (
            config.instructions_per_core + config.warmup_instructions
        )

    def attack_after(token, result, *args, **kwargs):
        counts["rowhammer.attack_runs"] += 1
        counts["rowhammer.activations"] += result.activations

    def read_before(controller, addresses):
        return controller.stats.snapshot()

    def read_after(token, result, controller, addresses):
        delta = controller.stats.delta(token)
        counts["core.reads"] += delta.reads
        counts["core.clean_reads"] += delta.clean_reads

    def lines_one(*args, **kwargs):
        return 1

    def lines_batch(mac, lines, addresses):
        return len(lines)

    def modules_of(evaluator, geometry, config, fault_counts, *args, **kwargs):
        return len(fault_counts)

    def range_after(token, result, evaluator, geometry, config, fault_counts, *a, **k):
        counts["faultsim.modules"] += len(fault_counts)
        counts["faultsim.busy_modules"] += int((fault_counts >= 1).sum())
        counts["faultsim.multi_fault_modules"] += int((fault_counts >= 2).sum())

    def draw_modules(config, geometry):
        return config.n_modules

    out: List[Point] = []
    for cls in _campaign_classes():
        out += [
            Point(cls, "run_item", "campaign.cell", cell=item_cell, after=cell_done),
            Point(cls, "fingerprint", "campaign.fingerprint", cell=item_cell),
            Point(cls, "serialize_result", "campaign.serde", cell=item_cell),
            Point(cls, "deserialize_result", "campaign.serde", cell=item_cell),
        ]
    out += [
        Point(ResultStore, "load", "campaign.store_load", cell=named_cell),
        Point(ResultStore, "store", "campaign.store_write", cell=named_cell),
        Point(RemoteResultStore, "load", "campaign.wire", cell=named_cell),
        Point(RemoteResultStore, "store", "campaign.wire", cell=named_cell),
        Point(perf_fast, "_synthesize_trace", "perf.synthesis"),
        Point(
            perf_fast,
            "_content_pass",
            "perf.content",
            before=content_before,
            after=content_after,
        ),
        Point(perf_fast, "_timing_pass", "perf.timing", after=timing_after),
        Point(AttackRunner, "run", "rowhammer.attack", after=attack_after),
        Point(VictimArray, "populate_row", "rowhammer.victim"),
        Point(VictimArray, "apply_flips", "rowhammer.victim"),
        Point(VictimArray, "read_all", "rowhammer.victim"),
        Point(MemoryController, "write", "core.write"),
        Point(EncryptedController, "write", "core.write"),
        Point(
            MemoryController,
            "access_many",
            "core.read",
            before=read_before,
            after=read_after,
        ),
        Point(
            EncryptedController,
            "access_many",
            "core.read",
            before=read_before,
            after=read_after,
        ),
        Point(LineMAC, "compute", "mac.compute", work=lines_one),
        Point(LineMAC, "verify", "mac.compute", work=lines_one),
        Point(LineMAC, "compute_batch", "mac.compute", work=lines_batch),
        Point(parallel, "draw_fault_counts", "faultsim.draw", work=draw_modules),
        Point(
            faultsim_fast,
            "simulate_range_fast",
            "faultsim.vector",
            work=modules_of,
            after=range_after,
        ),
        Point(montecarlo, "_simulate_module", "faultsim.scalar"),
    ]
    for codec in (WordSECDEDLine, LineECC1, ChipkillCode):
        for attr in ("encode", "decode", "correct", "encode_batch", "decode_batch"):
            if attr in vars(codec):
                out.append(Point(codec, attr, "ecc.codec"))
    return out


def _campaign_classes():
    from repro.faultsim.parallel import _FaultSimCampaign
    from repro.perf.campaign import _PerfCampaign
    from repro.rowhammer.playbook import _PlaybookCampaign

    return (_PerfCampaign, _PlaybookCampaign, _FaultSimCampaign)


def install(tracer: Tracer) -> None:
    """Wrap every boundary, plus the cell-name hooks that map store files
    back to cell ids."""
    tracer.install(points(tracer))
    for cls in _campaign_classes():
        tracer.patch(cls, "cell_name", _cell_name_hook(tracer, cls.cell_name))


def _cell_name_hook(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(campaign, item, fingerprint):
        name = original(campaign, item, fingerprint)
        tracer.note_cell_name(name, tracer.cell_id(campaign, item))
        return name

    return wrapper


@contextmanager
def counting_requeues() -> Iterator[Counter]:
    """Count pool fan-out group submissions beyond each group's first.

    The pool executor resubmits every unfinished group to a fresh pool
    after a worker crash, so ``submits - groups`` is the number of group
    requeues. Only the parent process is patched, which is where the
    executor submits.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.campaign import engine

    counter: Counter = Counter()

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            counter["submits"] += 1
            return super().submit(*args, **kwargs)

    original_pool, original_fan_out = engine.ProcessPoolExecutor, engine._fan_out

    def fan_out(campaign, pending, *args, **kwargs):
        counter["groups"] += len({campaign.group_key(item) for item in pending})
        return original_fan_out(campaign, pending, *args, **kwargs)

    engine.ProcessPoolExecutor, engine._fan_out = CountingPool, fan_out
    try:
        yield counter
    finally:
        engine.ProcessPoolExecutor, engine._fan_out = original_pool, original_fan_out
