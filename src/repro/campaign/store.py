"""The unified, fingerprint-verified campaign result store.

One JSON file per completed work item (a *cell*), all written through a
single atomic-write path (temp file + ``fsync`` + ``os.replace``) so a
kill at any instant leaves either the old cell or the new one — never a
torn file. Every cell embeds the *full* science fingerprint it was
computed under; :meth:`ResultStore.load` verifies it against the
caller's fingerprint before a cached result may substitute for a fresh
computation, and reports *why* a cell was unusable:

- ``"absent"`` — no file;
- ``"corrupt"`` — unreadable or structurally wrong (a truncated write
  from a killed run, a hand-mangled file);
- ``"stale"`` — well-formed but computed under different science (a
  fingerprint or schema-version mismatch, e.g. a different seed, scale,
  or simulation engine).

The distinction flows into the engine's progress snapshots
(``rejected_corrupt`` / ``rejected_stale``), so an operator can tell a
damaged store from a re-scoped campaign at a glance.

Completed cells are additionally recorded in an append-only index file
(``campaign-index.jsonl``, one JSON object per line) naming the
campaign, the item key, and the cell file. The index is observational:
loads never consult it (the fingerprint inside each cell is the source
of truth), but ``python -m repro campaign-status DIR`` can summarize a
store — per-campaign completion counts — without recomputing a single
fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

#: Cell schema version; bumped if the payload layout changes. A version
#: mismatch is a *stale* cell (recompute), never an error.
STORE_VERSION = 1

#: Append-only completion log, one JSON object per line.
INDEX_NAME = "campaign-index.jsonl"


def atomic_write_json(path: str, payload: Any) -> None:
    """Atomically persist ``payload`` as JSON at ``path``.

    Temp file in the destination directory, ``fsync`` before rename, so
    concurrent writers race benignly (last completed write wins with
    intact content) and a crash never leaves a partial file under the
    final name.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            # One json.dumps call: json.dump streams through the pure-Python
            # encoder, dumps uses the C one. The bytes are the same.
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def fingerprint_digest(fingerprint: dict) -> str:
    """Short stable digest of a fingerprint (cell file naming)."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class ResultStore:
    """Fingerprint-verified JSON cells plus the append-only index."""

    def __init__(self, directory: str):
        self.directory = directory

    def path(self, cell_name: str) -> str:
        return os.path.join(self.directory, cell_name)

    def load(
        self, cell_name: str, fingerprint: dict
    ) -> Tuple[Optional[Any], Optional[str]]:
        """Load one cell; ``(result, None)`` or ``(None, reason)``.

        The *full* stored fingerprint is compared, not just the file
        name, so a digest collision or a hand-edited file can never
        smuggle in a result computed under different science. Any
        failure falls back to recomputation — a truncated file from a
        killed run must never poison a resume.
        """
        path = self.path(cell_name)
        if not os.path.exists(path):
            return None, "absent"
        try:
            with open(path) as handle:
                payload = json.load(handle)
            version = payload["version"]
            stored = payload["fingerprint"]
            result = payload["result"]
        except (OSError, ValueError, KeyError, TypeError):
            return None, "corrupt"
        if version != STORE_VERSION or stored != fingerprint:
            return None, "stale"
        return result, None

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
        """Atomically persist one cell and append it to the index.

        ``failures`` is the domain's failure count for the result
        (``Campaign.result_failures``); it rides on the index entry so
        ``campaign-status`` can total failures without opening a cell.
        """
        payload = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "result": result,
        }
        atomic_write_json(self.path(cell_name), payload)
        if campaign is not None:
            entry = {
                "campaign": campaign,
                "key": key,
                "cell": cell_name,
                "failures": int(failures),
            }
            line = json.dumps(entry, sort_keys=True)
            # A single small write on an O_APPEND descriptor is atomic on
            # POSIX, so concurrent campaigns interleave whole lines.
            with open(self.path(INDEX_NAME), "a") as handle:
                handle.write(line + "\n")


def read_index(directory: str) -> List[dict]:
    """Parse the append-only index; malformed lines are skipped.

    (A torn line can only exist if the host crashed mid-append; the
    cells themselves are still verified by fingerprint on load.)
    """
    path = os.path.join(directory, INDEX_NAME)
    entries: List[dict] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and "campaign" in entry:
                    entries.append(entry)
    except OSError:
        return []
    return entries


def summarize_index(directory: str) -> Dict[str, Dict[str, int]]:
    """Per-campaign completion and failure counts from the index alone.

    Returns ``{campaign: {"completed": distinct item keys, "cells":
    distinct cell files, "entries": raw index lines, "failures": domain
    failure events summed over cells}}``. Re-running a campaign
    re-appends its items, so ``entries`` exceeding ``completed`` simply
    means cells were rewritten (same science, same key) — not
    duplicated work; each cell's failure count is taken from its latest
    entry, so rewrites never double-count failures (entries written
    before the index carried failure counts contribute zero).
    """
    summary: Dict[str, Dict[str, Any]] = {}
    for entry in read_index(directory):
        name = str(entry["campaign"])
        bucket = summary.setdefault(
            name, {"keys": set(), "cells": set(), "entries": 0, "fail_by_cell": {}}
        )
        bucket["entries"] += 1
        bucket["keys"].add(json.dumps(entry.get("key"), sort_keys=True))
        cell = entry.get("cell")
        if cell:
            bucket["cells"].add(cell)
            failures = entry.get("failures")
            bucket["fail_by_cell"][cell] = (
                int(failures) if isinstance(failures, (int, float)) else 0
            )
    return {
        name: {
            "completed": len(bucket["keys"]),
            "cells": len(bucket["cells"]),
            "entries": bucket["entries"],
            "failures": sum(bucket["fail_by_cell"].values()),
        }
        for name, bucket in sorted(summary.items())
    }
