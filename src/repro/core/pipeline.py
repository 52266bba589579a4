"""Composable controller data-path pipeline.

Every memory organization in :mod:`repro.core` — the two SafeGuard designs
and the four baselines — is the same machine underneath: a
:class:`~repro.core.backend.MemoryBackend` holding the bits a DIMM would,
a metadata layout packed into the ECC chips' 64 bits, an optional MAC, an
optional correction search, and per-access cost/statistics bookkeeping.
This module factors that machine out so each concrete controller is a thin
declarative composition:

- :class:`MemoryController` — the base data path. Owns the backend, the
  :class:`~repro.core.types.ControllerStats` wiring (every read outcome,
  including spare hits and silent-corruption classification, is observed
  in exactly one place), the shared fault-injection surface, the
  per-access :class:`AccessLog` event stream, and the write/read template
  methods. Subclasses implement :meth:`MemoryController._encode` and
  :meth:`MemoryController._read_path` in terms of the stages below.
- :class:`FieldLayout` — declarative LSB-first bit-field packing for
  metadata and codec payload words.
- :class:`MacStage` — a MAC with automatic per-access accounting: every
  verification increments the access context and emits a ``MAC_CHECK``
  event.
- :meth:`MemoryController._correction_search` — the one correction
  search (Section IV-C's pins, Section V-B's chips, Synergy's chips):
  the first candidate repair whose MAC verifies, with the remembered
  candidate checked alone and the rest MACed in one batch.
- :class:`ColumnHistory` / :class:`ChipHistory` — correction-search state
  machines (Section IV-C column memory with the eager shortcut;
  Section V-D known-failed-chip memory with the ping-pong bound).
- :class:`AccessContext` — the mutable cost accumulator one access threads
  through the stages; it renders to :class:`~repro.core.types.AccessCosts`.

Conformance: refactoring a controller onto this pipeline must preserve
bit-exact ``ReadResult`` semantics. ``tests/test_controller_conformance.py``
replays the golden-parity corpus recorded from the pre-pipeline
implementations against every registered scheme.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.backend import MemoryBackend
from repro.core.config import SafeGuardConfig
from repro.core.types import AccessCosts, ControllerStats, ReadResult, ReadStatus
from repro.mac.linemac import LineMAC
from repro.utils.bits import bytes_to_int, int_to_bytes


# -- per-access event stream ----------------------------------------------------


class AccessEventKind(enum.Enum):
    """What happened on the data path, at event granularity."""

    WRITE = "write"
    READ = "read"
    MAC_CHECK = "mac_check"
    SEARCH_ITERATION = "search_iteration"
    CORRECTION = "correction"
    SPARE_HIT = "spare_hit"
    DUE = "due"
    SILENT_CORRUPTION = "silent_corruption"


@dataclass(frozen=True)
class AccessEvent:
    """One data-path event.

    ``detail`` carries the event-specific payload: the corrected bit/pin/
    chip index for ``CORRECTION``, 1/0 for ``MAC_CHECK`` success, the
    candidate index for ``SEARCH_ITERATION``.
    """

    kind: AccessEventKind
    address: int
    status: Optional[ReadStatus] = None
    detail: Optional[int] = None


class AccessLog:
    """Counter + subscriber stream of :class:`AccessEvent`.

    Counters are always maintained (cheap); full event objects are only
    materialized when at least one subscriber is attached, so the
    instrumented fast path stays fast.
    """

    def __init__(self) -> None:
        self.counters: "Counter[AccessEventKind]" = Counter()
        self._subscribers: List[Callable[[AccessEvent], None]] = []

    def subscribe(self, callback: Callable[[AccessEvent], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[AccessEvent], None]) -> None:
        self._subscribers.remove(callback)

    def emit(
        self,
        kind: AccessEventKind,
        address: int,
        status: Optional[ReadStatus] = None,
        detail: Optional[int] = None,
    ) -> None:
        self.counters[kind] += 1
        if self._subscribers:
            event = AccessEvent(kind, address, status, detail)
            for callback in self._subscribers:
                callback(event)

    def count(self, kind: AccessEventKind) -> int:
        return self.counters[kind]


# -- per-access cost accumulator -------------------------------------------------


@dataclass
class AccessContext:
    """Mutable cost accumulator for one access, threaded through stages."""

    address: int
    mac_checks: int = 0
    correction_iterations: int = 0
    extra_memory_accesses: int = 0


# -- metadata / payload bit-field layout ----------------------------------------


class FieldLayout:
    """Declarative LSB-first bit-field packing.

    Fields are ``(name, width)`` pairs packed in order from bit 0 upward;
    zero-width fields are dropped (so a layout can be parameterized by
    configuration, e.g. column parity on/off). The total must fit the
    word the layout is packed into — callers assert their own budgets.
    """

    def __init__(self, *fields: Tuple[str, int]):
        self.fields: Tuple[Tuple[str, int], ...] = tuple(
            (name, width) for name, width in fields if width
        )
        self.total_bits = sum(width for _, width in self.fields)

    def width(self, name: str) -> int:
        for field_name, width in self.fields:
            if field_name == name:
                return width
        return 0

    def pack(self, **values: int) -> int:
        word = 0
        shift = 0
        for name, width in self.fields:
            word |= (values.get(name, 0) & ((1 << width) - 1)) << shift
            shift += width
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        out: Dict[str, int] = {}
        shift = 0
        for name, width in self.fields:
            out[name] = (word >> shift) & ((1 << width) - 1)
            shift += width
        return out


# -- MAC stage -------------------------------------------------------------------


class MacStage:
    """A truncated per-line MAC with automatic per-access accounting.

    Every verification bills one MAC check to the access context and
    emits a ``MAC_CHECK`` event, so all schemes report comparable
    statistics without hand-maintained counters.
    """

    def __init__(self, key: bytes, bits: int, log: AccessLog):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self._mac = LineMAC(key, bits)
        self._log = log
        #: ``(line, address, mac)`` of the last line :meth:`matches` MACed. A
        #: chip search's MAC-chip candidate is the raw line the failed
        #: pre-correction check just MACed (only the MAC it must match
        #: differs), so :meth:`compute_lines` reuses it. Keyed on the
        #: content, it is never stale.
        self._last: Tuple[int, int, int] = (-1, -1, 0)

    def compute(self, data: bytes, address: int) -> int:
        return self._mac.compute(data, address)

    def matches(self, ctx: AccessContext, line: int, address: int, stored_mac: int) -> bool:
        """Verify a line held as a 512-bit integer against a stored MAC."""
        last_line, last_address, computed = self._last
        if line != last_line or address != last_address:
            computed = self._mac.compute(int_to_bytes(line), address)
            self._last = (line, address, computed)
        return self.check(ctx, computed, stored_mac)

    def matches_bytes(
        self, ctx: AccessContext, data: bytes, address: int, stored_mac: int
    ) -> bool:
        return self.check(ctx, self._mac.compute(data, address), stored_mac)

    def check(self, ctx: AccessContext, computed: int, stored_mac: int) -> bool:
        """Bill one verification of an already computed MAC."""
        ctx.mac_checks += 1
        ok = computed == (stored_mac & self.mask)
        self._log.emit(AccessEventKind.MAC_CHECK, ctx.address, detail=int(ok))
        return ok

    def compute_lines(self, lines: Sequence[int], address: int) -> Iterator[int]:
        """The MACs of 512-bit ``lines`` stored at ``address``, in order.

        A line :meth:`matches` last MACed at ``address`` is not MACed
        again. Enough other lines to pay for the numpy kernel go through
        one :meth:`LineMAC.compute_batch`; fewer are MACed one at a time
        as the caller consumes them, so a search that stops at its match
        skips the rest.
        """
        last_line, last_address, last_mac = self._last
        known = last_line if last_address == address else -1
        fresh = [line for line in lines if line != known]
        if not self._mac.vectorizes(len(fresh)):
            return (
                last_mac
                if line == known
                else self._mac.compute(int_to_bytes(line), address)
                for line in lines
            )
        computed = iter(
            self._mac.compute_batch(
                [int_to_bytes(line) for line in fresh], [address] * len(fresh)
            )
        )
        return iter([last_mac if line == known else next(computed) for line in lines])

    def assume_match(self, ctx: AccessContext) -> None:
        """Bill a MAC check whose success is certain without computing it.

        The pristine fast path (:meth:`MemoryController.access_many`) uses
        this for lines whose stored bits are untouched since the write:
        the verification outcome is predetermined, but the access must
        still account for the check — same counter, same event — so batch
        and scalar reads report identical costs.
        """
        ctx.mac_checks += 1
        self._log.emit(AccessEventKind.MAC_CHECK, ctx.address, detail=1)


# -- correction-search history ---------------------------------------------------


class ColumnHistory:
    """Remembered failing column and the Section IV-C eager shortcut.

    Tracks the pin that last explained a recovery and how many consecutive
    reads it has explained; once the streak reaches ``eager_after``, the
    controller skips the initial MAC check and reconstructs eagerly.
    """

    def __init__(self, n_candidates: int, eager_after: int):
        self.n_candidates = n_candidates
        self.eager_after = eager_after
        self.last: Optional[int] = None
        self.streak = 0

    @property
    def eager_ready(self) -> bool:
        return self.last is not None and self.streak >= self.eager_after

    def candidates(self) -> List[int]:
        """All pins, remembered-first (Section IV-C short-circuit)."""
        if self.last is None:
            return list(range(self.n_candidates))
        rest = [p for p in range(self.n_candidates) if p != self.last]
        return [self.last] + rest

    def note_hit(self, pin: int) -> None:
        if pin == self.last:
            self.streak += 1
        else:
            self.last = pin
            self.streak = 1

    def note_clean(self) -> None:
        # A read explained without column recovery breaks any "permanent
        # pin failure" streak.
        self.streak = 0


class ChipHistory:
    """Known-failed-chip memory with the Section V-D ping-pong bound."""

    def __init__(self, n_candidates: int, ping_pong_limit: int):
        self.n_candidates = n_candidates
        self.ping_pong_limit = ping_pong_limit
        self.known: Optional[int] = None
        self.ping_pong = 0

    @property
    def eager_ready(self) -> bool:
        return self.known is not None

    def candidates(self) -> List[int]:
        """All chips, known-failed first (Section V-D)."""
        if self.known is None:
            return list(range(self.n_candidates))
        rest = [c for c in range(self.n_candidates) if c != self.known]
        return [self.known] + rest

    def note_repair(self, chip: int) -> bool:
        """Record a successful repair; True if the ping-pong bound tripped
        (interchanging chip failures — declare a DUE, Section V-D)."""
        previous = self.known
        if previous is not None and chip != previous:
            self.ping_pong += 1
            if self.ping_pong >= self.ping_pong_limit:
                self.reset()
                return True
        else:
            self.ping_pong = 0
        self.known = chip
        return False

    def reset(self) -> None:
        self.known = None
        self.ping_pong = 0


# -- the base controller ---------------------------------------------------------


class MemoryController:
    """Base class for every memory-organization data path.

    Owns the backend, statistics, the event stream and the shared
    write/read templates. A concrete scheme implements:

    - :meth:`_setup` — build its stages (codec, MAC, search history);
    - :meth:`_encode` — data line -> (stored line, 64-bit metadata);
    - :meth:`_read_path` — stored bits -> :class:`ReadResult`;

    and optionally :meth:`_pre_read` (spare-line service) and
    :meth:`_post_write` (side-region bookkeeping: separate MAC region,
    chip-parity region, spare invalidation).
    """

    def __init__(
        self,
        config: Optional[SafeGuardConfig] = None,
        backend: Optional[MemoryBackend] = None,
    ):
        self.config = config or SafeGuardConfig()
        self.backend = backend or MemoryBackend()
        self.stats = ControllerStats()
        self.events = AccessLog()
        self._setup()

    # -- composition hooks ---------------------------------------------------

    def _setup(self) -> None:
        """Build the scheme's stages. Default: nothing to build."""

    def _encode(self, address: int, line: int, data: bytes) -> Tuple[int, int]:
        """Encode a write: (stored 512-bit line, 64-bit metadata)."""
        raise NotImplementedError

    def _read_path(
        self, ctx: AccessContext, address: int, raw: int, meta: int
    ) -> ReadResult:
        """Classify/correct one stored line."""
        raise NotImplementedError

    def _pre_read(self, ctx: AccessContext, address: int) -> Optional[ReadResult]:
        """Chance to service the access without touching the backend."""
        return None

    def _clean_read(self, ctx, address: int, stored) -> Optional[ReadResult]:
        """Service a read of a line with no injected faults, or None.

        Only invoked from :meth:`access_many`, and only when the backend
        guarantees the stored bits are exactly as the last write left them
        (``is_pristine``). An implementation must reproduce the full read
        path's outcome for that case *bit-for-bit* — same data, status,
        costs, events and search-history side effects — and must return
        None whenever its state could make the clean path deviate (e.g.
        an eager-correction mode is armed). Default: no fast path.
        """
        return None

    def _post_write(self, address: int, line: int, meta: int, data: bytes) -> None:
        """Side-region bookkeeping after the backend store."""

    # -- write template ------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Encode and store a 64-byte line."""
        if len(data) != 64:
            raise ValueError("line must be 64 bytes")
        line = bytes_to_int(data)
        stored, meta = self._encode(address, line, data)
        self.backend.store(address, stored, meta, data)
        self._post_write(address, stored, meta, data)
        self.stats.writes += 1
        self.events.emit(AccessEventKind.WRITE, address)

    # -- read template -------------------------------------------------------

    def read(self, address: int) -> ReadResult:
        """Read a line through the scheme's full verification path.

        Every outcome — clean, corrected, spare-serviced, DUE — flows
        through the same :meth:`ControllerStats.observe` call with the
        same golden-copy silent-corruption classification, so all schemes
        report comparable statistics.
        """
        ctx = AccessContext(address)
        result = self._pre_read(ctx, address)
        if result is None:
            stored = self.backend.load(address)
            result = self._read_path(ctx, address, stored.data, stored.meta)
        return self._finish_read(address, result)

    def access_many(self, addresses) -> List[ReadResult]:
        """Read a batch of lines; equivalent to ``[self.read(a) for a in ...]``.

        The batch path may service lines the backend knows are pristine
        through the scheme's :meth:`_clean_read` shortcut, skipping decode
        and MAC arithmetic whose outcome is predetermined — with identical
        results, statistics and events. Lines with injected faults (and
        any access a scheme's state makes non-trivial) go through the full
        read path. Scalar :meth:`read` never takes the shortcut, so
        single-op measurements keep timing the real machinery.
        """
        backend = self.backend
        results = []
        for address in addresses:
            ctx = AccessContext(address)
            result = self._pre_read(ctx, address)
            if result is None:
                stored = backend.load(address)
                if backend.is_pristine(address):
                    result = self._clean_read(ctx, address, stored)
                if result is None:
                    result = self._read_path(ctx, address, stored.data, stored.meta)
            results.append(self._finish_read(address, result))
        return results

    def _finish_read(self, address: int, result: ReadResult) -> ReadResult:
        silent = self.backend.is_silent_corruption(address, result.data, result.due)
        self.stats.observe(result, silent)
        self._emit_read_events(address, result, silent)
        return result

    def _emit_read_events(
        self, address: int, result: ReadResult, silent: bool
    ) -> None:
        emit = self.events.emit
        emit(AccessEventKind.READ, address, result.status)
        if result.status in (
            ReadStatus.CORRECTED_BIT,
            ReadStatus.CORRECTED_COLUMN,
            ReadStatus.CORRECTED_CHIP,
        ):
            emit(
                AccessEventKind.CORRECTION,
                address,
                result.status,
                result.corrected_location,
            )
        elif result.status is ReadStatus.SERVICED_BY_SPARE:
            emit(AccessEventKind.SPARE_HIT, address, result.status)
        elif result.status is ReadStatus.DETECTED_UE:
            emit(AccessEventKind.DUE, address, result.status)
        if silent:
            emit(AccessEventKind.SILENT_CORRUPTION, address, result.status)

    # -- shared cost/result helpers ------------------------------------------

    #: Whether parity-reconstruction iterations contribute to the latency
    #: tail (SafeGuard's one-cycle reconstructions do; Synergy's
    #: correction latency is modeled as MAC checks only).
    count_reconstruct_latency = True

    def _iterate(self, ctx: AccessContext, candidate: Optional[int] = None) -> None:
        """Bill one correction-search iteration."""
        ctx.correction_iterations += 1
        self.events.emit(
            AccessEventKind.SEARCH_ITERATION, ctx.address, detail=candidate
        )

    def _correction_search(
        self,
        ctx: AccessContext,
        mac: MacStage,
        order: Sequence[int],
        repair: Callable[[int], Tuple[int, int]],
    ) -> Optional[Tuple[int, int, int]]:
        """The first candidate in ``order`` whose repair the MAC verifies.

        ``repair(c)`` is candidate ``c``'s repaired line and the MAC it
        must match. The first candidate (the remembered pin or chip, when
        there is one) is checked alone; if it misses, the rest are MACed
        together (:meth:`MacStage.compute_lines`) and walked in order.
        Every candidate tried bills one iteration and one MAC check, and
        the walk stops at the first match, so costs and events are those
        of trying the candidates one by one. Returns ``(candidate, line,
        mac)`` of the match, or None when every candidate misses.
        """
        address = ctx.address
        first, rest = order[0], order[1:]
        self._iterate(ctx, first)
        line, stored = repair(first)
        # Through compute_lines, so the pre-correction check's MAC stays
        # the one remembered for the rest.
        if mac.check(ctx, next(mac.compute_lines([line], address)), stored):
            return first, line, stored
        repairs = [repair(candidate) for candidate in rest]
        computed = mac.compute_lines([line for line, _ in repairs], address)
        for candidate, (line, stored), value in zip(rest, repairs, computed):
            self._iterate(ctx, candidate)
            if mac.check(ctx, value, stored):
                return candidate, line, stored
        return None

    def _costs(self, ctx: AccessContext) -> AccessCosts:
        latency = ctx.mac_checks * self.config.mac_latency_cycles
        if self.count_reconstruct_latency:
            latency += ctx.correction_iterations * self.config.parity_reconstruct_cycles
        return AccessCosts(
            mac_checks=ctx.mac_checks,
            extra_memory_accesses=ctx.extra_memory_accesses,
            correction_iterations=ctx.correction_iterations,
            latency_cycles=latency,
        )

    def _result(
        self,
        ctx: AccessContext,
        line: int,
        status: ReadStatus,
        location: Optional[int] = None,
    ) -> ReadResult:
        return ReadResult(int_to_bytes(line), status, self._costs(ctx), location)

    def _due(self, ctx: AccessContext, raw: int) -> ReadResult:
        return self._result(ctx, raw, ReadStatus.DETECTED_UE)

    # -- shared fault-injection surface --------------------------------------

    def inject_data_bits(self, address: int, mask: int) -> None:
        """Flip data bits of the stored line (post-encode, i.e. in DRAM)."""
        self.backend.inject_data_bits(address, mask)

    def inject_meta_bits(self, address: int, mask: int) -> None:
        """Flip metadata (ECC-chip) bits of the stored line."""
        self.backend.inject_meta_bits(address, mask)

    def inject_bit(self, address: int, bit: int) -> None:
        """Flip one bit of the 576-bit burst (bits 512+ hit metadata)."""
        self.backend.inject_bit(address, bit)
