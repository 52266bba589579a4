"""Tests for the networked result store and job front door.

The load-bearing promise: :class:`RemoteResultStore` is the *same*
``ResultStore`` contract over a socket — the full-fingerprint
verification and the absent/corrupt/stale rejection taxonomy below are
the exact cases ``tests/test_campaign_core.py`` pins for the local
store, re-run against a live server (files planted straight into the
server's store directory, judged through the wire).

On top of the raw contract:

- **claims** divide a grid between concurrent clients — second client
  sees ``inflight``, waits, and gets the producer's result; a dead
  client's claims die with its socket; leases backstop wedged-but-alive
  clients;
- **engine integration** — ``run_campaign(..., store=RemoteResultStore)``
  works unchanged, resumes from the shared store, and two concurrent
  clients compute disjoint cell sets (zero overlapping recomputes);
- **jobs** — submit/status/results/watch over the asyncio front door.
"""

import json
import threading

import pytest

from repro.campaign import (
    BackgroundServer,
    CampaignClient,
    RemoteResultStore,
    run_campaign,
)
from repro.campaign.wire import PROTOCOL_VERSION, parse_url
from tests.test_campaign_core import FP, SquareCampaign, _items


@pytest.fixture()
def server(tmp_path):
    with BackgroundServer(str(tmp_path)) as srv:
        yield srv


@pytest.fixture()
def remote(server):
    with RemoteResultStore(server.url) as store:
        yield store


class TestWire:
    def test_parse_url(self):
        assert parse_url("localhost:7797") == ("localhost", 7797)
        assert parse_url("tcp://10.0.0.5:1234") == ("10.0.0.5", 1234)
        with pytest.raises(ValueError):
            parse_url("http://host:80")
        with pytest.raises(ValueError):
            parse_url("no-port-here")

    def test_ping_reports_protocol_version(self, server):
        with CampaignClient(server.url) as client:
            pong = client.ping()
        assert pong["version"] == PROTOCOL_VERSION


class TestRemoteStoreContract:
    """The local store's rejection matrix, byte-for-byte over the wire."""

    def test_roundtrip(self, remote):
        remote.store("cell.json", FP, {"value": 7}, campaign="t", key=[1])
        assert remote.load("cell.json", FP) == ({"value": 7}, None)

    def test_absent(self, remote):
        assert remote.load("missing.json", FP) == (None, "absent")

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all{{{",
            '"a bare string"',
            "[1, 2, 3]",
            '{"version": 1}',  # structurally wrong: no fingerprint/result
        ],
    )
    def test_corrupt(self, server, remote, tmp_path, content):
        (tmp_path / "cell.json").write_text(content)
        assert remote.load("cell.json", FP) == (None, "corrupt")

    def test_stale_version(self, remote, tmp_path):
        (tmp_path / "cell.json").write_text(
            json.dumps({"version": 999, "fingerprint": FP, "result": 1})
        )
        assert remote.load("cell.json", FP) == (None, "stale")

    def test_stale_fingerprint(self, remote):
        remote.store("cell.json", FP, 1)
        assert remote.load("cell.json", dict(FP, seed=4)) == (None, "stale")

    def test_cross_engine_results_never_substitute(self, remote):
        remote.store("cell.json", FP, 1)
        assert remote.load("cell.json", dict(FP, engine="fast")) == (None, "stale")
        assert remote.load("cell.json", dict(FP)) == (1, None)

    def test_store_writes_through_to_local_directory(self, remote, tmp_path):
        """The server's directory is an ordinary local store underneath."""
        from repro.campaign import ResultStore

        remote.store("cell.json", FP, {"value": 3}, campaign="t", key=[1])
        assert ResultStore(str(tmp_path)).load("cell.json", FP) == (
            {"value": 3},
            None,
        )


class TestClaims:
    def test_second_client_sees_inflight_then_result(self, server):
        with RemoteResultStore(server.url) as a, RemoteResultStore(server.url) as b:
            assert a.load("cell.json", FP) == (None, "absent")  # a now claims
            assert b.load("cell.json", FP) == (None, "inflight")
            a.store("cell.json", FP, {"value": 9})
            assert b.load("cell.json", FP) == ({"value": 9}, None)

    def test_load_wait_returns_produced_result(self, server):
        with RemoteResultStore(server.url) as a, RemoteResultStore(
            server.url, wait_chunk_s=0.5
        ) as b:
            assert a.load("cell.json", FP) == (None, "absent")
            assert b.load("cell.json", FP) == (None, "inflight")

            def produce():
                a.store("cell.json", FP, {"value": 5})

            timer = threading.Timer(0.2, produce)
            timer.start()
            try:
                assert b.load_wait("cell.json", FP) == ({"value": 5}, None)
            finally:
                timer.cancel()

    def test_result_stored_right_after_a_miss_is_not_recomputed(self, server):
        """The miss and the claim are one server step.

        Were they two requests, the holder could store the cell (dropping
        its claim) between them, and the second client would win a claim
        on a finished cell and compute it again.
        """
        with RemoteResultStore(server.url) as a, RemoteResultStore(server.url) as b:
            assert a.load("cell.json", FP) == (None, "absent")  # a now claims
            request = b._conn.request

            def store_after_first_load(payload):
                response = request(payload)
                if payload["op"] == "load":
                    b._conn.request = request
                    a.store("cell.json", FP, {"value": 4})
                return response

            b._conn.request = store_after_first_load
            assert b.load("cell.json", FP) == (None, "inflight")
            assert b.load_wait("cell.json", FP) == ({"value": 4}, None)

    def test_dead_client_releases_claims(self, server):
        a = RemoteResultStore(server.url)
        assert a.load("cell.json", FP) == (None, "absent")
        a.close()
        with RemoteResultStore(server.url) as b:
            # b wins the claim as soon as the server reaps a's socket.
            assert b.load_wait("cell.json", FP) == (None, "absent")

    def test_release_hands_the_cell_over(self, server):
        with RemoteResultStore(server.url) as a, RemoteResultStore(server.url) as b:
            assert a.load("cell.json", FP) == (None, "absent")
            a.release("cell.json")
            assert b.load("cell.json", FP) == (None, "absent")

    def test_lease_expiry_backstops_wedged_clients(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), lease_s=0.05) as srv:
            with RemoteResultStore(srv.url) as a, RemoteResultStore(srv.url) as b:
                assert a.load("cell.json", FP) == (None, "absent")
                import time

                time.sleep(0.1)  # a is wedged; its lease lapses
                assert b.load("cell.json", FP) == (None, "absent")

    def test_claim_false_is_a_pure_shared_cache(self, server):
        with RemoteResultStore(server.url, claim=False) as a, RemoteResultStore(
            server.url, claim=False
        ) as b:
            assert a.load("cell.json", FP) == (None, "absent")
            assert b.load("cell.json", FP) == (None, "absent")  # no inflight


def _squares(results):
    return {i: r["square"] for i, r in results.items()}


class TestEngineOverRemote:
    def test_run_campaign_through_remote_store(self, server):
        with RemoteResultStore(server.url) as store:
            first = run_campaign(SquareCampaign(), _items(4), store=store)
        assert _squares(first) == {0: 1, 1: 4, 2: 9, 3: 16}

        snaps = []
        with RemoteResultStore(server.url) as store:
            second = run_campaign(
                SquareCampaign(), _items(4), store=store, progress=snaps.append
            )
        assert _squares(second) == _squares(first)
        assert snaps[-1].items_from_store == 4

        with CampaignClient(server.url) as client:
            summary = client.status()
        assert summary["square"]["completed"] == 4
        assert summary["square"]["entries"] == 4  # the resume re-stored nothing

    def test_concurrent_clients_recompute_zero_overlapping_cells(self, server):
        reference = _squares(run_campaign(SquareCampaign(), _items(6)))
        computed = {}

        def client(name):
            snaps = []
            with RemoteResultStore(server.url, wait_chunk_s=0.5) as store:
                results = run_campaign(
                    SquareCampaign(), _items(6), store=store, progress=snaps.append
                )
            assert _squares(results) == reference
            last = snaps[-1]
            computed[name] = last.items_done - last.items_from_store

        threads = [
            threading.Thread(target=client, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

        # Every cell was computed exactly once across both clients: the
        # store's append-only index saw exactly one entry per cell.
        assert computed["a"] + computed["b"] == 6
        with CampaignClient(server.url) as client_:
            summary = client_.status()
        assert summary["square"] == {
            "completed": 6,
            "cells": 6,
            "entries": 6,
            "failures": 0,
        }


class TestJobs:
    def test_submit_wait_results(self, server):
        params = {
            "attacks": ["single-sided"],
            "mitigations": ["none"],
            "schemes": ["secded"],
            "seeds": [3],
        }
        with CampaignClient(server.url) as client:
            job = client.submit("hammer-sweep", params)
            status = client.wait(job, poll_s=0.05)
            assert status["state"] == "done", status
            results = client.job_results(job)
            assert len(results) == 1
            assert results[0]["attack"] == "single-sided"
            assert results[0]["scheme"] == "secded"

            # The job's cells landed in the shared store: a second
            # identical job is a pure cache hit (no new index entries).
            entries = client.status()["hammer-sweep"]["entries"]
            rerun = client.submit("hammer-sweep", params)
            assert client.wait(rerun, poll_s=0.05)["state"] == "done"
            assert client.status()["hammer-sweep"]["entries"] == entries

            stats = client.stats()
            assert stats["activity"]["jobs_finished"] >= 2
            assert stats["activity"]["jobs_failed"] == 0
            assert stats["jobs"]["done"] >= 2

    def test_watch_streams_progress_to_the_end(self, server):
        with CampaignClient(server.url) as client:
            job = client.submit(
                "hammer-sweep",
                {
                    "attacks": ["single-sided"],
                    "mitigations": ["none"],
                    "schemes": ["secded", "safeguard-secded"],
                    "seeds": [3],
                },
            )
            events = list(client.watch(job))
        assert events, "watch yielded nothing"
        assert events[-1]["event"] == "end"
        assert events[-1]["state"] == "done"

    def test_unknown_kind_and_job_are_errors(self, server):
        with CampaignClient(server.url) as client:
            with pytest.raises(RuntimeError, match="unknown job kind"):
                client.submit("make-coffee")
            with pytest.raises(RuntimeError, match="unknown job"):
                client.job_status("job-9999")
            job = client.submit(
                "hammer-sweep",
                {
                    "attacks": ["single-sided"],
                    "mitigations": ["none"],
                    "schemes": ["secded"],
                },
            )
            # Results are gated on completion.
            status = client.job_status(job)
            if status["state"] in ("queued", "running"):
                with pytest.raises(RuntimeError, match="is (queued|running)"):
                    client.job_results(job)
            client.wait(job, poll_s=0.05)

    def test_faultsim_jobs_on_other_engines_keep_their_checkpoints(self, server):
        """A faultsim job never overwrites another engine's shard files.

        fast -> reference -> fast: the reference job must not clobber
        the fast job's checkpoint, so the second fast job resumes every
        shard from it instead of recomputing.
        """
        params = {"scheme": "safeguard-secded", "n_modules": 2000, "seed": 5,
                  "workers": 1}

        def run(engine):
            with CampaignClient(server.url) as client:
                job = client.submit("faultsim", {**params, "engine": engine})
                status = client.wait(job, poll_s=0.05)
                assert status["state"] == "done", status
                return status["progress"]["items_from_store"], client.job_results(job)

        cold, fast_first = run("fast")
        assert cold == 0
        recomputed, _ = run("reference")
        assert recomputed == 0
        resumed, fast_again = run("fast")
        assert resumed == 1
        assert fast_again == fast_first
