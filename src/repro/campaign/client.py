"""Synchronous clients for the campaign server.

:class:`RemoteResultStore` speaks the :class:`repro.campaign.ResultStore`
``load``/``store`` contract over one persistent TCP connection, so the
campaign engine (and every domain adapter's ``store=`` parameter) can
swap a network store in for a local directory without changing a line of
campaign logic. Verification stays server-side and *full-fingerprint*:
the rejection taxonomy (``absent``/``corrupt``/``stale``) comes back
exactly as a local store would report it.

On top of the raw contract the remote store adds claim coordination:
before reporting a cell ``absent`` (= "you should compute this") it
claims the cell, and if another client already holds the claim it
reports ``"inflight"`` instead — the engine then computes its *own*
pending cells first and comes back via :meth:`load_wait`, which blocks
until the other client's result lands (a cache hit) or its claim dies
with it (our turn to compute). Claims ride on the connection: killing a
client releases everything it held, so a resumed campaign never waits
out a dead claimant's lease.

:class:`CampaignClient` is the job-API sibling: submit/status/results
plus a streaming ``watch`` over the server's progress events.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.campaign.wire import parse_url, recv_frame, send_frame

#: One server-side blocking-wait chunk inside :meth:`load_wait`; each
#: timeout reloads and re-tries the claim, so a dead producer stalls a
#: waiter by at most one chunk.
DEFAULT_WAIT_CHUNK_S = 5.0


class _Connection:
    """One framed request/response socket with lock + lazy reconnect."""

    def __init__(self, host: str, port: int, timeout_s: Optional[float]):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._sock

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip; reconnects once on a dead connection.

        Note the reconnect makes the server see a *new* connection, so
        any claims held on the old one are gone — which is the correct
        failure semantics: a client that lost its link also lost its
        right to block others.
        """
        with self._lock:
            for attempt in (0, 1):
                try:
                    sock = self._connect()
                    send_frame(sock, payload)
                    response = recv_frame(sock)
                    if response is None:
                        raise ConnectionError("server closed the connection")
                    return response
                except (ConnectionError, OSError, socket.timeout):
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        finally:
                            self._sock = None
                    if attempt:
                        raise
        raise ConnectionError("unreachable")  # pragma: no cover


def _checked(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise RuntimeError(f"campaign server error: {response.get('error')}")
    return response


class RemoteResultStore:
    """The ``ResultStore`` contract over a campaign-server connection.

    ``claim=False`` turns off inflight coordination (pure shared cache:
    every client recomputes misses independently); the default
    coordinates concurrent clients so overlapping grids are computed
    exactly once.
    """

    def __init__(
        self,
        url: str,
        *,
        claim: bool = True,
        wait_chunk_s: float = DEFAULT_WAIT_CHUNK_S,
        timeout_s: Optional[float] = 120.0,
    ):
        host, port = parse_url(url)
        self.url = url
        self.claim_cells = claim
        self.wait_chunk_s = wait_chunk_s
        self._conn = _Connection(host, port, timeout_s)

    # -- the ResultStore contract ------------------------------------------------

    def load(
        self, cell_name: str, fingerprint: dict
    ) -> Tuple[Optional[Any], Optional[str]]:
        """Server-verified load, claiming misses we intend to compute.

        ``(result, None)`` on a verified hit; ``(None, "absent" |
        "corrupt" | "stale")`` when this client should compute the cell
        (claim acquired, when claiming is on); ``(None, "inflight")``
        when another client holds the claim — resolve later with
        :meth:`load_wait`.
        """
        response = _checked(
            self._conn.request(
                {
                    "op": "load",
                    "cell": cell_name,
                    "fingerprint": fingerprint,
                    "claim": self.claim_cells,
                }
            )
        )
        reason = response.get("reason")
        if reason is None:
            return response.get("result"), None
        if self.claim_cells and not response["granted"]:
            return None, "inflight"
        return None, reason

    def store(
        self,
        cell_name: str,
        fingerprint: dict,
        result: Any,
        *,
        campaign: Optional[str] = None,
        key: Any = None,
        failures: int = 0,
    ) -> None:
        _checked(
            self._conn.request(
                {
                    "op": "store",
                    "cell": cell_name,
                    "fingerprint": fingerprint,
                    "result": result,
                    "campaign": campaign,
                    "key": key,
                    "failures": int(failures),
                }
            )
        )

    # -- inflight coordination ---------------------------------------------------

    def load_wait(
        self, cell_name: str, fingerprint: dict
    ) -> Tuple[Optional[Any], Optional[str]]:
        """Block until an inflight cell resolves.

        Returns a verified ``(result, None)`` once the producing client
        stores it, or ``(None, reason)`` the moment this client wins the
        claim instead (the producer died or let its lease lapse) —
        meaning the cell is now ours to compute.
        """
        while True:
            response = _checked(
                self._conn.request(
                    {
                        "op": "load",
                        "cell": cell_name,
                        "fingerprint": fingerprint,
                        "wait": True,
                        "wait_s": self.wait_chunk_s,
                        "claim": self.claim_cells,
                    }
                )
            )
            reason = response.get("reason")
            if reason is None:
                return response.get("result"), None
            if not self.claim_cells or response["granted"]:
                return None, reason
            time.sleep(min(0.05, self.wait_chunk_s))

    def release(self, cell_name: str) -> None:
        """Give back a claim this client will not fulfil."""
        _checked(self._conn.request({"op": "release", "cell": cell_name}))

    def close(self) -> None:
        """Drop the connection (and with it every claim this client holds)."""
        self._conn.close()

    def __enter__(self) -> "RemoteResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CampaignClient:
    """Job/status front-door client for one campaign server."""

    def __init__(self, url: str, *, timeout_s: Optional[float] = 120.0):
        self.url = url
        host, port = parse_url(url)
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._conn = _Connection(host, port, timeout_s)

    def ping(self) -> Dict[str, Any]:
        return _checked(self._conn.request({"op": "ping"}))

    def status(self) -> Dict[str, Dict[str, int]]:
        """The server store's ``summarize_index`` summary."""
        return _checked(self._conn.request({"op": "status"}))["summary"]

    def stats(self) -> Dict[str, Any]:
        return _checked(self._conn.request({"op": "stats"}))

    def submit(self, kind: str, params: Optional[dict] = None) -> str:
        response = _checked(
            self._conn.request({"op": "submit", "kind": kind, "params": params or {}})
        )
        return response["job"]

    def job_status(self, job_id: str) -> Dict[str, Any]:
        return _checked(self._conn.request({"op": "job-status", "job": job_id}))

    def job_results(self, job_id: str) -> Any:
        return _checked(self._conn.request({"op": "job-results", "job": job_id}))[
            "results"
        ]

    def jobs(self) -> Any:
        return _checked(self._conn.request({"op": "jobs"}))["jobs"]

    def watch(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream a job's progress events until its ``end`` event.

        Uses a dedicated connection so a long watch never blocks this
        client's request/response traffic.
        """
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout_s
        )
        try:
            send_frame(sock, {"op": "watch", "job": job_id})
            head = recv_frame(sock)
            if head is None or not head.get("ok"):
                raise RuntimeError(
                    f"campaign server error: {(head or {}).get('error')}"
                )
            while True:
                event = recv_frame(sock)
                if event is None:
                    return
                yield event
                if event.get("event") == "end":
                    return
        finally:
            sock.close()

    def wait(self, job_id: str, *, poll_s: float = 0.2) -> Dict[str, Any]:
        """Poll until the job leaves queued/running; returns its status."""
        while True:
            status = self.job_status(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            time.sleep(poll_s)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
