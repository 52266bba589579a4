"""Distributed campaign smoke: one server, two concurrent clients.

CI's end-to-end check of the networked campaign path:

1. **Shared store, zero overlap**: two clients run overlapping slices
   of one small playbook grid (``cells[:6]`` and ``cells[2:]``)
   concurrently through one campaign server. Each client computes at
   least one point of its own, each ends with exactly the reference
   results for its slice, and the shared points are stored once (the
   store's append-only index saw exactly one entry per cell).
2. **Job front door**: the same grid submitted as a server-side job via
   the CLI (``python -m repro submit``) is a pure cache hit, and
   ``python -m repro campaign-status --remote`` summarizes the shared
   store over the wire.

Run locally: ``PYTHONPATH=src python scripts/ci_distributed_smoke.py``
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign import (  # noqa: E402
    BackgroundServer,
    CampaignClient,
    RemoteResultStore,
)
from repro.rowhammer.playbook import (  # noqa: E402
    PlaybookConfig,
    plan_playbook,
    run_playbook,
)

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

PLAYBOOK_CONFIG = PlaybookConfig(budget=6_000)


def playbook_cells():
    return plan_playbook(
        scenarios=["double-sided", "half-double"],
        mitigations=["none", "graphene"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
        config=PLAYBOOK_CONFIG,
    )


def check_concurrent_clients(server) -> None:
    cells = playbook_cells()
    reference = {
        k: v.to_json() for k, v in run_playbook(cells, PLAYBOOK_CONFIG).items()
    }
    # Overlapping slices: each client owns cells the other never asks
    # for, so both compute, and the middle ones go to whichever claims
    # them first.
    slices = {"first": cells[:6], "second": cells[2:]}
    outcome = {}
    errors = []
    first_started = threading.Event()

    def client(name, wait_for=None):
        try:
            if wait_for is not None:
                wait_for.wait(timeout=10.0)
                time.sleep(0.2)  # let the first client claim ahead of us
            snaps = []

            def track(snap):
                first_started.set()
                snaps.append(snap)

            with RemoteResultStore(server.url, wait_chunk_s=0.5) as store:
                results = run_playbook(
                    slices[name], PLAYBOOK_CONFIG, store=store, progress=track
                )
            last = snaps[-1]
            outcome[name] = {
                "results": {k: v.to_json() for k, v in results.items()},
                "computed": last.items_done - last.items_from_store,
                "from_store": last.items_from_store,
            }
        except BaseException as error:  # noqa: BLE001 - smoke boundary
            errors.append((name, error))

    threads = [
        threading.Thread(target=client, args=("first",)),
        threading.Thread(target=client, args=("second", first_started)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert not errors, f"client failures: {errors}"
    assert not any(thread.is_alive() for thread in threads), "client hung"

    for name, part in slices.items():
        expected = {cell.key: reference[cell.key] for cell in part}
        assert outcome[name]["results"] == expected, f"{name} diverged"
        assert outcome[name]["computed"] > 0, (
            f"{name} client computed nothing of its own slice"
        )

    computed = outcome["first"]["computed"] + outcome["second"]["computed"]
    assert computed == len(cells), (
        f"{computed} points computed across both clients for a "
        f"{len(cells)}-point grid: overlap or loss"
    )

    with CampaignClient(server.url) as client_:
        summary = client_.status()["playbook"]
    assert summary["completed"] == len(cells)
    assert summary["entries"] == len(cells), (
        f"{summary['entries']} index entries for {len(cells)} cells: "
        "some point was stored twice"
    )
    print(
        f"concurrent clients OK: {len(cells)} points split "
        f"{outcome['first']['computed']}/{outcome['second']['computed']}, "
        f"second client loaded {outcome['second']['from_store']} from the "
        f"shared store, each shared point stored once"
    )


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=dict(
            os.environ,
            PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
        ),
    )


def check_job_front_door(server) -> None:
    # Jobs run the default PlaybookConfig (whose fingerprints differ
    # from the reduced-budget smoke grid), so restrict the submitted grid
    # to a single point to keep the job cheap.
    params = json.dumps(
        {
            "scenarios": ["double-sided"],
            "mitigations": ["graphene"],
            "schemes": ["secded"],
            "seeds": [3],
        }
    )
    submitted = _cli(["submit", server.url, "playbook", "--params", params, "--watch"])
    assert submitted.returncode == 0, submitted.stderr
    # stdout is the "submitted job-NNNN" banner followed by results JSON.
    assert submitted.stdout.startswith("submitted job-"), submitted.stdout
    results = json.loads(submitted.stdout[submitted.stdout.index("[") :])
    assert len(results) == 1 and results[0]["scenario"] == "double-sided"

    status = _cli(["campaign-status", "--remote", server.url])
    assert status.returncode == 0, status.stderr
    assert "playbook" in status.stdout
    with CampaignClient(server.url) as client:
        stats = client.stats()
    assert stats["activity"]["jobs_finished"] >= 1
    assert stats["activity"]["jobs_failed"] == 0
    print("job front door OK: CLI submit --watch + campaign-status --remote")
    print(status.stdout.rstrip())


def main() -> int:
    with tempfile.TemporaryDirectory() as store_dir:
        with BackgroundServer(store_dir) as server:
            check_concurrent_clients(server)
            check_job_front_door(server)
    print("distributed smoke: server + concurrent clients OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
