"""Tests for the work-stealing campaign scheduler.

Pins the scheduler half of the distributed-campaign contract:

- **bit-identity** — ``run_campaign_stealing`` returns exactly what
  sequential ``run_campaign`` returns, for any worker count and any
  steal (enqueue) order;
- **group atomicity** — a group's items all run in one worker process;
- **supervision** — a worker that dies is replaced and its group
  requeued; a worker that *hangs* is detected via the message-heartbeat
  timeout, killed, and its group requeued; a group that keeps killing
  workers exhausts its attempt budget into :class:`CampaignError`;
  deterministic item exceptions propagate unchanged;
- **integration** — ``run_campaign(..., scheduler="steal")`` and the
  ``SCHEDULER`` switch (``REPRO_SCHEDULER``) reach the same code path.

Reuses the module-level campaigns of ``tests/test_campaign_core.py``
(they must live at module scope to pickle into workers).
"""

import os
import random
import time

import pytest

from repro.campaign import (
    CampaignError,
    ResultStore,
    resolve_scheduler,
    run_campaign,
    run_campaign_stealing,
)
from repro.switches import SCHEDULER
from tests.test_campaign_core import (
    AlwaysCrashCampaign,
    CrashOnceCampaign,
    SquareCampaign,
    _items,
)
from tests.test_switches import python_with_env


class HangOnceCampaign(SquareCampaign):
    """Hangs (not crashes) the first time each item runs, then succeeds."""

    name = "hang-once"

    def __init__(self, flag_dir, hang_s=60.0):
        self.flag_dir = flag_dir
        self.hang_s = hang_s

    def run_item(self, item):
        flag = os.path.join(self.flag_dir, f"hung-{item.index}")
        if not os.path.exists(flag):
            open(flag, "w").close()
            time.sleep(self.hang_s)
        return super().run_item(item)


class AlwaysHangCampaign(SquareCampaign):
    name = "always-hang"

    def run_item(self, item):
        time.sleep(60.0)


class ExplodingCampaign(SquareCampaign):
    name = "exploding"

    def run_item(self, item):
        raise ValueError(f"item {item.index} is unrunnable")


def _squares(results):
    return {i: r["square"] for i, r in results.items()}


class TestBitIdentity:
    def test_matches_sequential_for_any_worker_count(self):
        reference = _squares(run_campaign(SquareCampaign(), _items(8)))
        for workers in (1, 2, 3):
            stolen = run_campaign_stealing(
                SquareCampaign(), _items(8), workers=workers
            )
            assert _squares(stolen) == reference

    def test_steal_order_never_changes_results(self):
        """Shuffling the grid permutes queue/steal order, not results."""
        reference = _squares(run_campaign(SquareCampaign(), _items(10)))
        for seed in (0, 1, 2):
            items = _items(10)
            random.Random(seed).shuffle(items)
            stolen = run_campaign_stealing(SquareCampaign(), items, workers=3)
            assert _squares(stolen) == reference

    def test_groups_stay_on_one_worker(self):
        """Stealing moves whole groups; items in a group share a pid."""
        items = _items(6, groups=[0, 0, 0, 1, 1, 1])
        results = run_campaign_stealing(SquareCampaign(), items, workers=2)
        assert len({results[i]["pid"] for i in (0, 1, 2)}) == 1
        assert len({results[i]["pid"] for i in (3, 4, 5)}) == 1

    def test_store_cells_identical_to_pool_scheduler(self, tmp_path):
        """Both schedulers persist byte-identical cells for a grid."""
        pool_dir = tmp_path / "pool"
        steal_dir = tmp_path / "steal"
        run_campaign(SquareCampaign(), _items(6), store_dir=str(pool_dir))
        run_campaign_stealing(
            SquareCampaign(), _items(6), workers=2, store_dir=str(steal_dir)
        )
        pool_cells = sorted(
            p for p in os.listdir(pool_dir) if p.startswith("square-")
        )
        steal_cells = sorted(
            p for p in os.listdir(steal_dir) if p.startswith("square-")
        )
        assert pool_cells == steal_cells
        for name in pool_cells:
            # Cells embed fingerprint + result; pids differ inside the
            # result payload, so compare the science-bearing parts.
            import json

            a = json.loads((pool_dir / name).read_text())
            b = json.loads((steal_dir / name).read_text())
            assert a["fingerprint"] == b["fingerprint"]
            assert a["result"]["square"] == b["result"]["square"]

    def test_store_resume(self, tmp_path):
        first = run_campaign_stealing(
            SquareCampaign(), _items(5), workers=2, store_dir=str(tmp_path)
        )
        snaps = []
        second = run_campaign_stealing(
            SquareCampaign(),
            _items(5),
            workers=2,
            store_dir=str(tmp_path),
            progress=snaps.append,
        )
        assert _squares(first) == _squares(second)
        assert snaps[-1].items_from_store == 5


class TestSupervision:
    def test_dead_worker_group_is_requeued(self, tmp_path):
        stats = {}
        results = run_campaign_stealing(
            CrashOnceCampaign(str(tmp_path)),
            _items(3),
            workers=2,
            poll_s=0.02,
            stats=stats,
        )
        assert _squares(results) == {0: 1, 1: 4, 2: 9}
        assert stats["worker_deaths"] >= 1
        assert stats["requeues"] >= 1
        assert stats["replacements"] >= 1

    def test_a_dying_worker_still_delivers_its_claim(self, tmp_path):
        """Each worker claims a group on its own pipe before running it,
        so every crash is charged to the group it held and no worker's
        reports are lost with another's death."""
        stats = {}
        run_campaign_stealing(
            CrashOnceCampaign(str(tmp_path)),
            _items(3),
            workers=2,
            poll_s=0.02,
            stats=stats,
        )
        assert stats["worker_deaths"] == 3
        # Every group was claimed twice: the run that crashed, the rerun.
        assert stats["claims"] >= 6
        assert stats["requeues"] >= 3

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_group_requeued(self, tmp_path):
        stats = {}
        results = run_campaign_stealing(
            HangOnceCampaign(str(tmp_path)),
            _items(2, groups=[0, 1]),
            workers=2,
            heartbeat_timeout_s=0.8,
            poll_s=0.02,
            stats=stats,
        )
        assert _squares(results) == {0: 1, 1: 4}
        assert stats["worker_deaths"] >= 1
        assert stats["requeues"] >= 1

    @pytest.mark.slow
    def test_always_hanging_group_exhausts_attempts(self):
        with pytest.raises(CampaignError, match="always-hang"):
            run_campaign_stealing(
                AlwaysHangCampaign(),
                _items(1),
                workers=2,
                max_attempts=2,
                heartbeat_timeout_s=0.5,
                poll_s=0.02,
            )

    def test_always_crashing_group_exhausts_attempts(self):
        with pytest.raises(CampaignError, match="always-crash"):
            run_campaign_stealing(
                AlwaysCrashCampaign(),
                _items(1),
                workers=2,
                max_attempts=2,
                poll_s=0.02,
            )

    def test_deterministic_exceptions_propagate(self):
        """An item *raising* is not a crash: no retry, original type."""
        with pytest.raises(ValueError, match="unrunnable"):
            run_campaign_stealing(ExplodingCampaign(), _items(2), workers=2)


class TestEngineIntegration:
    def test_scheduler_argument_selects_stealing(self):
        reference = _squares(run_campaign(SquareCampaign(), _items(6)))
        stolen = run_campaign(
            SquareCampaign(), _items(6), workers=2, scheduler="steal"
        )
        assert _squares(stolen) == reference

    def test_env_selects_scheduler(self):
        script = (
            "from repro.campaign import resolve_scheduler; "
            # Explicit argument beats the environment.
            "print(resolve_scheduler(), resolve_scheduler('pool'))"
        )
        out = python_with_env(script, REPRO_SCHEDULER="steal")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["steal", "pool"]

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
            resolve_scheduler("magic")
        with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
            run_campaign(SquareCampaign(), _items(1), scheduler="bogus")

    def test_steal_env_reaches_run_campaign(self, tmp_path):
        with SCHEDULER.override("steal"):
            results = run_campaign(
                SquareCampaign(), _items(4), workers=2, store_dir=str(tmp_path)
            )
        assert _squares(results) == {0: 1, 1: 4, 2: 9, 3: 16}
        store = ResultStore(str(tmp_path))
        cell = f"square-{_cell_digest(1)}.json"
        result, reason = store.load(cell, {"campaign": "square", "value": 1})
        assert reason is None and result["square"] == 1


def _cell_digest(value):
    from repro.campaign import fingerprint_digest

    return fingerprint_digest({"campaign": "square", "value": value})
