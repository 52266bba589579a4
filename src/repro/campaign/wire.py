"""Length-prefixed JSON framing for the campaign store/job protocol.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON. The same framing carries every protocol exchange —
the client's request objects, the server's response objects, and the
streamed ndjson-style progress events of a job watch — over either a
blocking socket (the synchronous client) or an asyncio stream (the
server). Stdlib only; no new dependencies.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional, Tuple

#: Protocol schema version; both sides send it in ``ping`` and refuse to
#: talk across a mismatch (the store contract is too load-bearing to
#: guess at).
PROTOCOL_VERSION = 2

#: Default TCP port for ``python -m repro serve`` (0 = ephemeral).
DEFAULT_PORT = 7797

#: Upper bound on a single frame; a length prefix beyond this is treated
#: as a corrupt/hostile stream, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(payload: Any) -> bytes:
    """JSON object -> one wire frame (header + body)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def parse_url(url: str) -> Tuple[str, int]:
    """``host:port`` or ``tcp://host:port`` -> ``(host, port)``."""
    text = url.strip()
    if "://" in text:
        scheme, _, text = text.partition("://")
        if scheme != "tcp":
            raise ValueError(f"unsupported store URL scheme {scheme!r} (tcp only)")
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"store URL {url!r} must be HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"store URL {url!r} has a non-numeric port") from None


# -- blocking-socket side (client) -----------------------------------------------


def send_frame(sock: socket.socket, payload: Any) -> None:
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """One frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    body = _recv_exact(sock, decode_length(header))
    if body is None:
        raise ConnectionError("connection closed between header and body")
    return json.loads(body.decode("utf-8"))


# -- asyncio side (server) -------------------------------------------------------


async def read_frame(reader) -> Optional[Any]:
    """One frame from an asyncio reader; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ConnectionError("connection closed mid-header") from None
    try:
        body = await reader.readexactly(decode_length(header))
    except asyncio.IncompleteReadError:
        raise ConnectionError("connection closed mid-frame") from None
    return json.loads(body.decode("utf-8"))


async def write_frame(writer, payload: Any) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()
