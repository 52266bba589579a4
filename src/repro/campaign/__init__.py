"""The generic campaign core: one implementation of every campaign mechanism.

The repo runs three campaign families — Monte-Carlo reliability shards
(:mod:`repro.faultsim.parallel`), cycle-level performance cells
(:mod:`repro.perf.campaign`), and Row-Hammer attack playbooks
(:mod:`repro.rowhammer.playbook`, which also runs Figures 1b and 1c).
All three are thin adapters over this package:

- :mod:`repro.campaign.engine` — the :class:`Campaign` work-item
  contract and the retrying, group-scheduling, store-backed executor
  (:func:`run_campaign`);
- :mod:`repro.campaign.scheduler` — the work-stealing alternative
  fan-out (persistent workers, heartbeat supervision), selected by
  ``run_campaign(..., scheduler="steal")`` / ``REPRO_SCHEDULER``
  (:mod:`repro.switches`);
- :mod:`repro.campaign.store` — the atomic, fingerprint-verified JSON
  :class:`ResultStore` with its append-only completion index;
- :mod:`repro.campaign.server` / :mod:`repro.campaign.client` — the
  same store served over TCP (:class:`RemoteResultStore`) plus the
  async job front door (``python -m repro serve`` / ``submit``);
- :mod:`repro.campaign.progress` — shared rate/ETA/fraction progress
  accounting and the repo-wide worker-count resolution
  (``REPRO_WORKERS``; :mod:`repro.switches`).

See the "campaign layer" section of ``docs/architecture.md`` for the
adapter diagram, the add-a-campaign recipe, and the distributed
(serve-a-campaign) recipe.
"""

from repro.campaign.client import CampaignClient, RemoteResultStore
from repro.campaign.engine import (
    Campaign,
    CampaignError,
    resolve_scheduler,
    run_campaign,
)
from repro.campaign.progress import (
    CampaignProgress,
    ProgressBase,
    ProgressCallback,
    resolve_workers,
)
from repro.campaign.scheduler import run_campaign_stealing
from repro.campaign.server import BackgroundServer, CampaignServer, ServerActivity
from repro.campaign.store import (
    INDEX_NAME,
    STORE_VERSION,
    ResultStore,
    atomic_write_json,
    fingerprint_digest,
    read_index,
    summarize_index,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "run_campaign",
    "run_campaign_stealing",
    "resolve_scheduler",
    "RemoteResultStore",
    "CampaignClient",
    "CampaignServer",
    "BackgroundServer",
    "ServerActivity",
    "CampaignProgress",
    "ProgressBase",
    "ProgressCallback",
    "resolve_workers",
    "ResultStore",
    "STORE_VERSION",
    "INDEX_NAME",
    "atomic_write_json",
    "fingerprint_digest",
    "read_index",
    "summarize_index",
]
