"""The sharded multi-process service plane (PR 8).

The promises under test, in rough dependency order:

* :func:`~repro.service.sharding.shard_for_key` is a *rendezvous* hash:
  deterministic, uniform enough, and stable — growing the pool from
  ``n`` to ``n + 1`` shards only ever remaps keys onto the new shard.
* :func:`~repro.service.sharding.aggregate_shard_stats` sums per-shard
  registry/batching sections exactly (what ``/stats`` and ``/metrics``
  serve in sharded mode).
* Sample pools are private to the process that draws them: an
  evicted-but-held handle still serves bit-identical rows, and worker
  processes create no shared-memory segments.
* The micro-batcher drains on shutdown: queued work is either served
  normally or failed with the shutdown error — never silently dropped —
  and a SIGTERM'd ``serve`` subprocess exits cleanly (code 0).
* Served rows are **bit-identical** to offline ``batch_estimate`` at
  any worker count, and across a SIGKILL + respawn of a shard worker.
* In-process serving is one :class:`~repro.service.LocalShard` behind
  the same submit / stats / drain / stop calls as the worker pool, so
  ``/stats``, ``/healthz`` and ``/metrics`` have one shape in both modes.
"""

import asyncio
import json
import os
import signal
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UR, M_US
from repro.engine import batch_estimate
from repro.service import (
    BackgroundServer,
    LocalShard,
    MicroBatcher,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
    WorkerConfig,
    WorkerPool,
    aggregate_shard_stats,
    shard_for_key,
)
from repro.service.loadtest import ServerProcess
from repro.workloads import figure2_database

from test_service import EPSILON, DELTA, QUERY_TEXT, fig2_requests


@pytest.fixture(scope="module", autouse=True)
def _lockdep(lockdep_state):
    """Lock-order sanitizing across the sharded plane's router locks."""
    return lockdep_state


# -- placement -----------------------------------------------------------------------------


class TestShardForKey:
    def test_single_shard_is_always_zero(self):
        assert shard_for_key("anything", 1) == 0
        assert shard_for_key("", 1) == 0

    def test_rejects_non_positive_shard_counts(self):
        with pytest.raises(ValueError):
            shard_for_key("k", 0)
        with pytest.raises(ValueError):
            shard_for_key("k", -2)

    @given(key=st.text(max_size=64), shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_in_range(self, key, shards):
        placed = shard_for_key(key, shards)
        assert 0 <= placed < shards
        assert shard_for_key(key, shards) == placed

    @given(key=st.text(max_size=64), shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_rendezvous_stability_under_growth(self, key, shards):
        """Adding shard ``n`` only ever moves keys *onto* shard ``n`` —
        every other key keeps its placement (the property that makes
        restarts with a different ``--workers`` cheap to re-warm)."""
        before = shard_for_key(key, shards)
        after = shard_for_key(key, shards + 1)
        assert after in (before, shards)

    def test_spreads_keys_across_shards(self):
        placements = {shard_for_key(f"group-{i}", 4) for i in range(200)}
        assert placements == {0, 1, 2, 3}


# -- stats aggregation ---------------------------------------------------------------------


def shard_stats(shard, *, sessions, hits, misses, evictions, batches, widest, pending=0):
    return {
        "shard": shard,
        "registry": {
            "sessions": sessions,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "store_errors": 0,
        },
        "batching": {
            "batches_run": batches,
            "coalesced_batches": 0,
            "pending_requests": pending,
            "rejected": 0,
            "cancelled_waiters": 0,
            "widest_batch": widest,
        },
    }


class TestAggregateShardStats:
    def test_sums_every_counter_and_maxes_widest_batch(self):
        per_shard = [
            shard_stats(0, sessions=2, hits=5, misses=2, evictions=1, batches=7, widest=3),
            shard_stats(1, sessions=1, hits=9, misses=1, evictions=0, batches=4, widest=6),
        ]
        merged = aggregate_shard_stats(per_shard)
        assert merged["shards"] == 2
        assert merged["unreported"] == 0
        assert merged["registry"] == {
            "sessions": 3, "hits": 14, "misses": 3, "evictions": 1,
            "store_errors": 0,
        }
        assert merged["batching"]["batches_run"] == 11
        assert merged["batching"]["widest_batch"] == 6  # max, not sum

    def test_dead_shards_count_as_unreported(self):
        per_shard = [
            shard_stats(0, sessions=1, hits=1, misses=1, evictions=0, batches=1, widest=1),
            {},  # a shard that died mid-scrape
            {"shard": 2, "registry": None, "batching": None},
        ]
        merged = aggregate_shard_stats(per_shard)
        assert merged["shards"] == 1
        assert merged["unreported"] == 2
        assert merged["registry"]["sessions"] == 1


# -- private sample pools ------------------------------------------------------------------


def shm_segments() -> set[str]:
    """The POSIX shared-memory segments ``multiprocessing`` names ``psm_*``."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestPrivatePools:
    def test_evicted_handle_keeps_serving_identical_rows(self):
        registry = SessionRegistry(seed=7, max_sessions=1)
        ur = fig2_requests(generators=(M_UR,))
        us = fig2_requests(generators=(M_US,))
        offline = batch_estimate(ur, seed=7)

        first = [r.result for r in registry.estimate(ur)]
        assert first == [r.result for r in offline]
        (handle,) = registry.handles()

        # Admitting the second generator's group evicts the first
        # (max_sessions=1)...
        registry.estimate(us)
        assert registry.evictions == 1
        assert handle not in registry.handles()

        # ...while the evicted handle (still held here, as a concurrent
        # batch might) keeps serving identical rows from its own pool.
        again = handle.run(ur, "fixed")
        assert [r.result for r in again] == [r.result for r in offline]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory is listed under /dev/shm on Linux only",
    )
    def test_worker_pool_creates_no_shared_memory(self):
        """Sharded workers keep every pool in private memory: serving the
        fig2 workload through two worker processes adds no segment."""
        database, constraints = figure2_database()
        keys = SessionRegistry(seed=7)
        before = shm_segments()

        async def scenario():
            pool = WorkerPool(WorkerConfig(seed=7), 2)
            await pool.start()
            try:
                rows = []
                for generator in (M_UR, M_US):
                    requests = fig2_requests(generators=(generator,))
                    key = keys.key_for(database, constraints, generator)
                    rows += await pool.submit(
                        key, database, constraints, generator, requests, "fixed"
                    )
                # Checked while the workers still hold their warm pools.
                return rows, shm_segments()
            finally:
                await pool.stop()

        rows, during = asyncio.run(scenario())
        offline = batch_estimate(fig2_requests(), seed=7)
        assert [row.result for row in rows] == [r.result for r in offline]
        assert during - before == set()


# -- graceful shutdown ---------------------------------------------------------------------


class TestShutdownDrain:
    def test_fail_pending_rejects_queued_waiters(self):
        """Waiters still queued (batch not yet started) get the shutdown
        error; nothing hangs and nothing is silently dropped."""
        requests = fig2_requests(generators=(M_UR,))
        database, constraints = figure2_database()

        async def scenario():
            batcher = MicroBatcher(SessionRegistry(seed=7))
            submitted = asyncio.ensure_future(
                batcher.submit(database, constraints, M_UR, requests, "fixed")
            )
            # One tick: submit() has enqueued its waiter and scheduled
            # the drain task, but the drain task has not run yet.
            await asyncio.sleep(0)
            failed = batcher.fail_pending(RuntimeError("shutting down"))
            assert failed == 1
            with pytest.raises(RuntimeError, match="shutting down"):
                await submitted
            await batcher.drain()  # nothing left; returns immediately
            assert batcher.stats()["pending_requests"] == 0

        asyncio.run(scenario())

    def test_drain_waits_for_inflight_batches(self):
        requests = fig2_requests(generators=(M_UR,))
        database, constraints = figure2_database()
        offline = batch_estimate(requests, seed=7)

        async def scenario():
            batcher = MicroBatcher(SessionRegistry(seed=7))
            submitted = asyncio.ensure_future(
                batcher.submit(database, constraints, M_UR, requests, "fixed")
            )
            await asyncio.sleep(0)
            await batcher.drain()
            assert submitted.done()  # drain returned only after the batch ran
            assert batcher.fail_pending(RuntimeError("late")) == 0
            return await submitted

        outcomes = asyncio.run(scenario())
        assert [o.result for o in outcomes] == [r.result for r in offline]

    def test_stop_mid_request_serves_or_503s(self):
        """A request in flight when the server stops is either served
        bit-identically (drained) or failed with a clean 503 — never a
        hang, never a dropped connection."""
        self.stop_mid_request(workers=None)

    def test_stop_mid_request_serves_or_503s_with_workers(self):
        """The same shutdown contract through the worker pool's drain."""
        self.stop_mid_request(workers=1)

    def stop_mid_request(self, workers):
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        expected = offline[0].result
        outcome = {}

        background = BackgroundServer(
            seed=7, server_options={"fault_injection": True, "workers": workers}
        )
        with background as server:
            client = ServiceClient(server.url, timeout=30.0, max_retries=0)
            client._call("POST", "/_fault", {"slow_seconds": 0.5})

            def call():
                try:
                    outcome["row"] = client.estimate(
                        database, constraints, QUERY_TEXT,
                        list(requests[0].answer),
                        epsilon=EPSILON, delta=DELTA, label="fig2",
                    )
                except ServiceClientError as error:
                    outcome["error"] = error

            caller = threading.Thread(target=call)
            caller.start()
            time.sleep(0.2)  # the slow handler is now holding the request
        caller.join(timeout=30)
        assert not caller.is_alive()
        if "row" in outcome:
            assert outcome["row"]["estimate"] == expected.estimate
            assert outcome["row"]["samples"] == expected.samples_used
        else:
            assert outcome["error"].status == 503

    def test_sigterm_exits_cleanly_sharded(self):
        """``serve --workers 2`` drains and exits 0 on SIGTERM (the
        pre-PR behavior was an abrupt KeyboardInterrupt traceback)."""
        process = ServerProcess(seed=7, workers=2, fault_injection=False)
        process.start()
        try:
            assert ServiceClient(process.url).healthz()["status"] == "ok"
            process._process.send_signal(signal.SIGTERM)
            process._process.wait(timeout=60)
            assert process._process.returncode == 0
        finally:
            process.stop()


# -- the sharded HTTP plane ----------------------------------------------------------------


def serve_rows(client, database, constraints, requests):
    return [
        client.estimate(
            database, constraints, QUERY_TEXT, list(request.answer),
            generator=request.generator.name,
            epsilon=EPSILON, delta=DELTA, label="fig2",
        )
        for request in requests
    ]


class TestShardedHttp:
    def test_bit_identity_at_every_worker_count_and_across_kill(self):
        database, constraints = figure2_database()
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        expected = [
            {"estimate": r.result.estimate, "samples": r.result.samples_used}
            for r in offline
        ]

        def served(client):
            return [
                {"estimate": row["estimate"], "samples": row["samples"]}
                for row in serve_rows(client, database, constraints, requests)
            ]

        for workers in (1, 2, 4):
            options = {"workers": workers, "fault_injection": True}
            with BackgroundServer(seed=7, server_options=options) as server:
                client = ServiceClient(server.url)
                assert served(client) == expected, f"workers={workers} drifted"

                if workers == 2:
                    # SIGKILL shard 0 mid-run: the router respawns and
                    # re-warms it; re-served rows must not move a bit.
                    report = client._call("POST", "/_fault", {"kill_worker": 0})
                    assert report["killed_worker"] == 0
                    assert report["killed_pid"]
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        stats = client.stats()
                        if all(stats.get("workers", {}).get("alive", [])):
                            break
                        time.sleep(0.1)
                    assert served(client) == expected, "post-kill drift"
                    restarts = sum(
                        entry.get("restarts", 0) for entry in client.stats()["shards"]
                    )
                    assert restarts >= 1

                if workers == 4:
                    self.check_aggregation(client)

    def check_aggregation(self, client):
        """Top-level /stats and /metrics totals equal the sum over shards."""
        stats = client.stats()
        assert stats["workers"]["count"] == 4
        shards = stats["shards"]
        assert len(shards) == 4
        for field in ("sessions", "hits", "misses", "evictions"):
            total = stats["registry"][field]
            assert total == sum(
                (entry.get("registry") or {}).get(field, 0) for entry in shards
            ), field
        assert stats["batching"]["batches_run"] == sum(
            (entry.get("batching") or {}).get("batches_run", 0) for entry in shards
        )
        # Two generators over one instance -> two groups, spread by the
        # rendezvous hash but never duplicated.
        assert stats["registry"]["sessions"] == 2

        series = client.metrics()
        for field, metric in (
            ("sessions", "repro_shard_sessions"),
            ("hits", "repro_shard_registry_hits"),
            ("misses", "repro_shard_registry_misses"),
        ):
            labeled = sum(
                value for key, value in series.items()
                if key.startswith(metric + "{")
            )
            assert labeled == stats["registry"][field], metric

    def test_healthz_reports_worker_liveness(self):
        options = {"workers": 2}
        with BackgroundServer(seed=7, server_options=options) as server:
            health = ServiceClient(server.url).healthz()
            assert health["workers"]["count"] == 2
            assert health["workers"]["alive"] == [True, True]

    def test_healthz_sessions_count_worker_sessions(self):
        # Sessions live in the workers; the router's registry never admits.
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        with BackgroundServer(seed=7, server_options={"workers": 1}) as server:
            client = ServiceClient(server.url)
            serve_rows(client, database, constraints, requests[:1])
            # /healthz first: its count must not lean on a /stats refresh.
            health = client.healthz()["sessions"]
            assert health == client.stats()["registry"]["sessions"] == 1

    def test_healthz_stays_fast_while_a_worker_restarts(self, monkeypatch):
        # The probe polls the shards briefly; a respawning shard is only
        # missing from the count, never a stall.
        options = {"workers": 1, "fault_injection": True}
        with BackgroundServer(seed=7, server_options=options) as server:
            client = ServiceClient(server.url)
            spawn = WorkerPool._spawn

            def slow_spawn(pool, shard):
                time.sleep(3.0)
                return spawn(pool, shard)

            monkeypatch.setattr(WorkerPool, "_spawn", slow_spawn)
            client._call("POST", "/_fault", {"kill_worker": 0})
            started = time.monotonic()
            health = client.healthz()
            assert time.monotonic() - started < 1.0
            assert health["status"] == "ok"
            # Let the respawn finish before the server stops.
            deadline = time.monotonic() + 30
            while not client.healthz()["workers"]["alive"][0]:
                assert time.monotonic() < deadline
                time.sleep(0.1)

    def test_registry_counters_fold_shards_and_never_decrease(self):
        # The router's own registry never admits under --workers: the
        # repro_registry_*_total counters must come from the shards, and
        # a respawned shard (whose registry restarts at zero) must not
        # pull them down.
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        fields = ("hits", "misses", "evictions")

        def counters(client):
            series = client.metrics()
            return {f: series[f"repro_registry_{f}_total"] for f in fields}

        options = {"workers": 1, "fault_injection": True}
        with BackgroundServer(seed=7, server_options=options) as server:
            client = ServiceClient(server.url)
            serve_rows(client, database, constraints, requests[:2])
            before = counters(client)
            assert before["misses"] == 1 and before["hits"] >= 1
            client._call("POST", "/_fault", {"kill_worker": 0})
            seen = [before, counters(client)]  # scraped mid-respawn
            deadline = time.monotonic() + 30
            while not client.healthz()["workers"]["alive"][0]:
                assert time.monotonic() < deadline
                time.sleep(0.1)
            serve_rows(client, database, constraints, requests[2:])
            seen.append(counters(client))
            for earlier, later in zip(seen, seen[1:]):
                for field in fields:
                    assert later[field] >= earlier[field], (field, seen)
            assert seen[-1]["misses"] >= 2  # the fresh worker admitted anew

    def test_session_faults_rejected_with_workers(self):
        # spill/drop would act on the router's empty registry and report 0.
        options = {"workers": 1, "fault_injection": True}
        with BackgroundServer(seed=7, server_options=options) as server:
            client = ServiceClient(server.url, max_retries=0)
            for fault in ("spill_sessions", "drop_sessions"):
                with pytest.raises(ServiceClientError) as caught:
                    client._call("POST", "/_fault", {fault: True})
                assert caught.value.status == 400
                assert fault in str(caught.value)
                assert "--workers" in str(caught.value)


# -- one serving path ----------------------------------------------------------------------


class TestOneServingPath:
    def test_local_shard_serves_reports_drains_and_stops(self):
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)

        async def scenario():
            local = LocalShard(SessionRegistry(seed=7))
            await local.start()
            key = local.registry.key_for(database, constraints, M_UR)
            rows = await local.submit(key, database, constraints, M_UR, requests, "fixed")
            (document,) = await local.stats()
            assert document["shard"] == 0
            assert document["alive"] and document["restarts"] == 0
            assert document["registry"]["sessions"] == 1
            assert document["batching"]["batches_run"] == 1
            assert local.workers == 1 and local.alive(0)
            with pytest.raises(ValueError, match="--workers"):
                local.kill(0)
            # Drain serves a round queued before it within the budget.
            queued = asyncio.ensure_future(
                local.submit(key, database, constraints, M_UR, requests, "fixed")
            )
            await asyncio.sleep(0)
            await local.drain(30, RuntimeError("shutting down"))
            assert queued.done()
            await local.stop()
            assert local.registry.stats()["sessions"] == 0
            return rows, await queued

        rows, drained = asyncio.run(scenario())
        assert [row.result for row in rows] == [r.result for r in offline]
        assert [row.result for row in drained] == [r.result for r in offline]

    @pytest.mark.parametrize("workers", [None, 1])
    def test_stats_healthz_and_metrics_share_one_shape(self, workers):
        database, constraints = figure2_database()
        requests = fig2_requests()
        options = {"workers": workers, "fault_injection": True}
        with BackgroundServer(seed=7, server_options=options) as server:
            client = ServiceClient(server.url)
            serve_rows(client, database, constraints, requests)
            assert client.healthz()["workers"] == {"count": 1, "alive": [True]}
            stats = client.stats()
            assert stats["workers"] == {"count": 1, "alive": [True]}
            assert stats["registry"]["sessions"] == 2  # M_ur and M_us groups
            assert stats["batching"]["batches_run"] >= 2
            assert stats["batching"]["pending_requests"] == 0
            # Only worker processes get a per-shard breakdown; a local
            # shard's document is the top-level sections themselves.
            assert ("shards" in stats) == bool(workers)
            series = client.metrics()
            assert series['repro_shard_sessions{shard="0"}'] == 2
            assert series["repro_shard_workers"] == 1
            assert series["repro_pending_requests"] == 0
            assert series["repro_sessions"] == 2
            if not workers:
                with pytest.raises(ServiceClientError) as caught:
                    client._call("POST", "/_fault", {"kill_worker": 0})
                assert caught.value.status == 400
                assert "--workers" in str(caught.value)
