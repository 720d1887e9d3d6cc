"""Saturation-hardening unit tests for the service plane.

Fault-injection coverage that needs no load harness: micro-batcher
rounds that blow up mid-drain, queue bounds under concurrent
submitters, registry eviction racing in-flight batches, the client's
total error surface, and exact ``/metrics`` counters after a scripted
request mix.  Everything here is deterministic tier-1.
"""

import asyncio
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UR, M_US
from repro.core.queries import atom, cq, var
from repro.engine.batch import BatchRequest, batch_estimate
from repro.service import (
    BackgroundServer,
    MicroBatcher,
    QueueFull,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
)
from repro.workloads import figure2_database

SEED = 7


@pytest.fixture(scope="module", autouse=True)
def _lockdep(lockdep_state):
    """Lock-order sanitizing across registry/batcher/metrics locks."""
    return lockdep_state


@pytest.fixture(scope="module")
def fig2():
    database, constraints = figure2_database()
    x, y = var("x"), var("y")
    query = cq((x,), (atom("R", x, y),))
    candidates = sorted(query.answers(database), key=repr)
    return database, constraints, query, candidates


def _requests(fig2, generator, epsilon=0.5, delta=0.2):
    database, constraints, query, candidates = fig2
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=epsilon,
            delta=delta,
            label=f"hard-{generator.name}-{position}",
        )
        for position, candidate in enumerate(candidates)
    ]


# -- micro-batcher fault injection ---------------------------------------------------------


class _FlakyRegistry:
    """Delegates to a real registry; raises inside the executor when armed."""

    def __init__(self, inner):
        self.inner = inner
        self.fail_rounds = 0

    def key_for(self, *args):
        return self.inner.key_for(*args)

    def handle(self, *args):
        if self.fail_rounds > 0:
            self.fail_rounds -= 1
            raise RuntimeError("injected mid-drain failure")
        return self.inner.handle(*args)


class _GatedRegistry:
    """Blocks the first batch in the executor until the gate opens."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.calls = 0

    def key_for(self, *args):
        return self.inner.key_for(*args)

    def handle(self, *args):
        self.calls += 1
        if self.calls == 1:
            assert self.gate.wait(30)
        return self.inner.handle(*args)


class TestMicroBatcherFaults:
    def test_failed_round_fails_only_its_waiters(self, fig2):
        database, constraints, _, _ = fig2
        requests = _requests(fig2, M_UR)
        flaky = _FlakyRegistry(SessionRegistry(seed=SEED))
        batcher = MicroBatcher(flaky)

        async def scenario():
            flaky.fail_rounds = 1
            first = batcher.submit(database, constraints, M_UR, [requests[0]])
            second = batcher.submit(database, constraints, M_UR, [requests[1]])
            # Both waiters coalesce into the poisoned round and share its
            # error; the drain loop itself must survive.
            outcomes = await asyncio.gather(first, second, return_exceptions=True)
            assert all(isinstance(o, RuntimeError) for o in outcomes)
            # The very next round is healthy.
            (row,) = await batcher.submit(database, constraints, M_UR, [requests[0]])
            return row

        row = asyncio.run(scenario())
        (offline,) = batch_estimate([requests[0]], seed=SEED)
        assert row.result == offline.result
        assert row.result.estimate == offline.result.estimate

    def test_queue_bounds_under_concurrent_submitters(self, fig2):
        database, constraints, _, _ = fig2
        requests = _requests(fig2, M_UR)
        batcher = MicroBatcher(SessionRegistry(seed=SEED), max_pending=2)

        async def scenario():
            submissions = [
                batcher.submit(database, constraints, M_UR, [requests[i % len(requests)]])
                for i in range(5)
            ]
            return await asyncio.gather(*submissions, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        served = [o for o in outcomes if isinstance(o, list)]
        rejected = [o for o in outcomes if isinstance(o, QueueFull)]
        assert len(served) == 2 and len(rejected) == 3
        assert batcher.rejected == 3
        assert all(error.retry_after >= 1 for error in rejected)
        # Rejected submissions left no queue residue behind.
        assert batcher.stats()["pending_requests"] == 0

    def test_per_group_queue_bound(self, fig2):
        database, constraints, _, _ = fig2
        requests = _requests(fig2, M_UR)
        batcher = MicroBatcher(SessionRegistry(seed=SEED), max_queue=1)

        async def scenario():
            submissions = [
                batcher.submit(database, constraints, M_UR, [requests[0]]),
                batcher.submit(database, constraints, M_UR, [requests[1]]),
            ]
            return await asyncio.gather(*submissions, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        rejected = [o for o in outcomes if isinstance(o, QueueFull)]
        assert len(rejected) == 1
        assert rejected[0].scope == "group"

    def test_cancelled_waiter_dropped_at_drain(self, fig2):
        database, constraints, _, _ = fig2
        requests = _requests(fig2, M_UR)
        gated = _GatedRegistry(SessionRegistry(seed=SEED))
        batcher = MicroBatcher(gated)

        async def scenario():
            first = asyncio.create_task(
                batcher.submit(database, constraints, M_UR, [requests[0]])
            )
            await asyncio.sleep(0.05)  # drain now blocked in the executor
            second = asyncio.create_task(
                batcher.submit(database, constraints, M_UR, [requests[1]])
            )
            await asyncio.sleep(0.05)  # queued behind the blocked round
            second.cancel()
            gated.gate.set()
            rows = await first
            with pytest.raises(asyncio.CancelledError):
                await second
            return rows

        rows = asyncio.run(scenario())
        assert len(rows) == 1 and rows[0].ok
        assert batcher.cancelled_waiters == 1


# -- registry concurrency ------------------------------------------------------------------


class TestRegistryConcurrency:
    def test_eviction_races_in_flight_batch(self, fig2):
        database, constraints, _, _ = fig2
        registry = SessionRegistry(seed=SEED, max_sessions=1)
        requests = _requests(fig2, M_UR)
        handle = registry.handle(database, constraints, M_UR)
        box = {}

        def run_inflight():
            box["rows"] = handle.run(requests)

        thread = threading.Thread(target=run_inflight)
        thread.start()
        # Admitting the second group evicts the first while its batch
        # may still be executing under the handle lock.
        registry.handle(database, constraints, M_US)
        thread.join(60)
        assert not thread.is_alive()
        assert registry.evictions == 1
        offline = batch_estimate(requests, seed=SEED)
        assert [row.result for row in box["rows"]] == [o.result for o in offline]
        # Holders may keep using an evicted handle; results stay
        # bit-identical because the pool replays from position zero.
        again = handle.run(requests)
        assert [row.result for row in again] == [o.result for o in offline]

    def test_eviction_spill_waits_for_in_flight_lock(self, fig2, tmp_path):
        database, constraints, _, _ = fig2
        registry = SessionRegistry(seed=SEED, max_sessions=1, cache_dir=str(tmp_path))
        handle = registry.handle(database, constraints, M_UR)
        assert handle.lock.acquire(timeout=5)
        evictor = threading.Thread(
            target=registry.handle, args=(database, constraints, M_US), daemon=True
        )
        try:
            evictor.start()
            evictor.join(0.3)
            # The spill must not clobber state mid-batch: it blocks on
            # the handle lock until the in-flight work releases it.
            assert evictor.is_alive()
        finally:
            handle.lock.release()
        evictor.join(60)
        assert not evictor.is_alive()
        assert registry.evictions == 1

    def test_double_close_is_idempotent(self, fig2):
        database, constraints, _, _ = fig2
        registry = SessionRegistry(seed=SEED)
        registry.handle(database, constraints, M_UR)
        registry.close()
        registry.close()
        assert registry.stats()["sessions"] == 0
        # A closed registry re-admits cleanly.
        rows = registry.estimate(_requests(fig2, M_UR))
        assert all(row.ok for row in rows)

    def test_close_races_in_flight_estimate(self, fig2):
        database, constraints, _, _ = fig2
        registry = SessionRegistry(seed=SEED)
        requests = _requests(fig2, M_UR)
        box = {}

        def estimate():
            box["rows"] = registry.estimate(requests)

        thread = threading.Thread(target=estimate)
        thread.start()
        registry.close()
        thread.join(60)
        assert not thread.is_alive()
        offline = batch_estimate(requests, seed=SEED)
        assert [row.result for row in box["rows"]] == [o.result for o in offline]


# -- client error surface ------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Pops one scripted ``(status, headers, body, body_length)`` per request."""

    script = []

    def _serve(self):
        if self.headers.get("Content-Length"):
            self.rfile.read(int(self.headers["Content-Length"]))
        status, headers, body, body_length = type(self).script.pop(0)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(body_length))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture()
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.script = []
    yield server, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestClientErrorSurface:
    def test_non_json_error_body_surfaces_status_and_excerpt(self, scripted_server):
        server, url = scripted_server
        body = b"<html>gateway exploded</html>"
        _ScriptedHandler.script = [(502, {}, body, len(body))]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url).healthz()
        assert excinfo.value.status == 502
        assert "non-JSON error body" in excinfo.value.payload["error"]
        assert "gateway exploded" in excinfo.value.payload["body_excerpt"]

    def test_non_json_success_body(self, scripted_server):
        server, url = scripted_server
        _ScriptedHandler.script = [(200, {}, b"not json", 8)]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url).healthz()
        assert excinfo.value.status == 200
        assert "not valid JSON" in excinfo.value.payload["error"]
        assert excinfo.value.payload["body_excerpt"] == "not json"

    def test_non_object_success_body(self, scripted_server):
        server, url = scripted_server
        _ScriptedHandler.script = [(200, {}, b"[1, 2]", 6)]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url).healthz()
        assert "not a JSON object" in excinfo.value.payload["error"]

    def test_truncated_response_reported_as_transport_error(self, scripted_server):
        server, url = scripted_server
        # Promise 64 bytes, deliver 9, close: http.client.IncompleteRead.
        _ScriptedHandler.script = [(200, {}, b"{\"cut\": 1", 64)]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url).healthz()
        assert excinfo.value.status == 0
        assert "truncated" in excinfo.value.payload["error"]

    def test_connection_refused_is_status_zero(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(f"http://127.0.0.1:{free_port}", timeout=5).healthz()
        assert excinfo.value.status == 0

    def test_retry_after_honored_with_bounded_retries(self, scripted_server):
        server, url = scripted_server
        busy = b'{"error": "busy"}'
        ok = b'{"status": "ok"}'
        _ScriptedHandler.script = [
            (429, {"Retry-After": "0"}, busy, len(busy)),
            (200, {}, ok, len(ok)),
        ]
        client = ServiceClient(url, max_retries=2, retry_after_cap=0.1)
        assert client.healthz() == {"status": "ok"}
        assert _ScriptedHandler.script == []

    def test_429_without_retry_after_is_not_retried(self, scripted_server):
        server, url = scripted_server
        busy = b'{"error": "busy"}'
        _ScriptedHandler.script = [(429, {}, busy, len(busy))] * 3
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url, max_retries=3).healthz()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is None
        assert len(_ScriptedHandler.script) == 2  # exactly one attempt

    def test_exhausted_retries_raise_final_rejection(self, scripted_server):
        server, url = scripted_server
        busy = b'{"error": "busy"}'
        _ScriptedHandler.script = [(429, {"Retry-After": "0"}, busy, len(busy))] * 3
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(url, max_retries=2, retry_after_cap=0.01).healthz()
        assert excinfo.value.status == 429
        assert _ScriptedHandler.script == []  # initial try + two retries


# -- exact /metrics counters ---------------------------------------------------------------


class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def scripted_metrics(self, request):
        """One scripted request mix against a fresh server, then a scrape."""
        fig2 = request.getfixturevalue("fig2")
        database, constraints, query, candidates = fig2
        with BackgroundServer(seed=SEED) as server:
            client = ServiceClient(server.url)
            client.healthz()
            client.healthz()
            client.stats()
            for label in ("mix-a", "mix-b", "mix-a"):  # third repeats -> cache hit
                client.estimate(
                    database,
                    constraints,
                    query,
                    candidates[0],
                    epsilon=0.5,
                    delta=0.2,
                    label=label,
                )
            answers = client.answers(
                database, constraints, query, epsilon=0.5, delta=0.2
            )
            for path, method, payload in (
                ("/nope", "GET", None),
                ("/estimate", "GET", None),
                ("/estimate", "POST", {"bad": "document"}),
            ):
                with pytest.raises(ServiceClientError):
                    client._call(method, path, payload)
            first = client.metrics()
            second = client.metrics()
            return first, second, len(answers)

    def test_exact_counters_after_scripted_mix(self, scripted_metrics):
        first, _, answer_rows = scripted_metrics
        assert first['repro_requests_total{endpoint="/healthz",status="200"}'] == 2
        assert first['repro_requests_total{endpoint="/stats",status="200"}'] == 1
        assert first['repro_requests_total{endpoint="/estimate",status="200"}'] == 3
        assert first['repro_requests_total{endpoint="/answers",status="200"}'] == 1
        assert first['repro_requests_total{endpoint="other",status="404"}'] == 1
        assert first['repro_requests_total{endpoint="/estimate",status="405"}'] == 1
        assert first['repro_requests_total{endpoint="/estimate",status="400"}'] == 1
        assert first["repro_estimates_served_total"] == 3 + answer_rows
        assert first["repro_answer_cache_hits_total"] == 1
        assert first["repro_answer_cache_misses_total"] == 2 + answer_rows
        assert first["repro_answer_cache_poisoned_total"] == 0
        assert first["repro_registry_evictions_total"] == 0
        assert first["repro_sessions"] == 1
        assert first["repro_inflight_requests"] == 0
        assert first["repro_pending_requests"] == 0
        assert first["repro_uptime_seconds"] > 0

    def test_histogram_buckets_cumulative_and_consistent(self, scripted_metrics):
        first, _, _ = scripted_metrics
        series = {}
        for key, value in first.items():
            if not key.startswith("repro_request_seconds_bucket{"):
                continue
            labels = dict(
                piece.split("=", 1)
                for piece in key[len("repro_request_seconds_bucket{"):-1].split(",")
            )
            bound = labels.pop("le").strip('"')
            group = (labels["endpoint"], labels["status"])
            series.setdefault(group, {})[
                float("inf") if bound == "+Inf" else float(bound)
            ] = value
        assert ('"/estimate"', '"200"') in series
        for group, buckets in series.items():
            ordered = [buckets[bound] for bound in sorted(buckets)]
            assert ordered == sorted(ordered), f"non-cumulative buckets for {group}"
            count_key = (
                "repro_request_seconds_count{endpoint=%s,status=%s}" % group
            )
            assert first[count_key] == ordered[-1]
        assert series[('"/estimate"', '"200"')][float("inf")] == 3

    def test_second_scrape_is_monotone_and_counts_the_first(self, scripted_metrics):
        first, second, _ = scripted_metrics
        assert second['repro_requests_total{endpoint="/metrics",status="200"}'] == 1
        for key, value in first.items():
            name = key.split("{", 1)[0]
            if name.endswith(("_total", "_bucket", "_count", "_sum")):
                assert second.get(key, 0) >= value, key


# -- degraded-mode storage (PR 9) ----------------------------------------------------------


class TestDegradedStorage:
    """A broken disk degrades the cache, never the answers.

    Faults are injected through the :mod:`repro.engine.fsfault` shim
    (the container runs as root, so permission-based read-only setups
    are ineffective here — the shim is also what production ENOSPC or
    bitrot actually exercises).
    """

    def _requests(self, fig2):
        return _requests(fig2, M_UR)

    def test_spill_failure_enters_and_exits_degraded_mode(self, fig2, tmp_path):
        from repro.engine import fsfault
        from repro.engine.fsfault import FaultPlan

        database, constraints, query, candidates = fig2
        registry = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        registry.estimate(self._requests(fig2))
        assert registry.spill_all() == 1
        stats = registry.stats()
        assert not stats["degraded"] and stats["store_errors"] == 0

        with fsfault.injected(FaultPlan(write_enospc=True, crash="raise")):
            handle = registry.handles()[0]
            with handle.lock:
                handle.pool.ensure(600)  # make the next spill dirty
            registry.spill_all()
        stats = registry.stats()
        assert stats["degraded"] and stats["store_errors"] >= 1
        assert stats["storage"]["errors"].get("spill:enospc")

        registry.spill_all()  # the disk healed: recovery is automatic
        assert not registry.stats()["degraded"]
        registry.close()

    def test_corrupt_warm_start_is_served_by_recompute(self, fig2, tmp_path):
        from repro.engine import fsfault
        from repro.engine.fsfault import FaultPlan

        requests = self._requests(fig2)
        seeded = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        baseline = [row.result for row in seeded.estimate(requests)]
        seeded.close()

        victim = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        listener_events = []
        victim.storage.listener = lambda op, kind: listener_events.append((op, kind))
        with fsfault.injected(FaultPlan(bitflip_seed=5, crash="raise")):
            degraded = [row.result for row in victim.estimate(requests)]
        assert degraded == baseline  # bit-identical despite the bitrot
        assert victim.stats()["degraded"]
        assert ("load", "corrupt") in listener_events
        victim.close()

    def test_store_error_counter_and_gauge_exported(self, fig2, tmp_path):
        from repro.engine import fsfault
        from repro.engine.fsfault import FaultPlan
        from repro.service.metrics import parse_metrics_text

        registry = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        with BackgroundServer(registry) as server:
            client = ServiceClient(server.url)
            healthy = client._call("GET", "/healthz")
            assert healthy["storage"] == {
                "degraded": False,
                "store_errors": 0,
                "last_error": None,
            }
            with fsfault.injected(FaultPlan(write_enospc=True, crash="raise")):
                registry.estimate(self._requests(fig2))
                registry.spill_all()
            series = parse_metrics_text(client.metrics_text())
            assert series["repro_degraded_mode"] == 1
            assert (
                series['repro_store_errors_total{kind="enospc",op="spill"}'] >= 1
            )
            document = client.stats()
            assert document["registry"]["degraded"]
            assert document["registry"]["store_errors"] >= 1
            health = client._call("GET", "/healthz")
            assert health["storage"]["degraded"]
            assert health["storage"]["last_error"].startswith("spill:")
            assert "no space left" in health["storage"]["last_error"]

            registry.spill_all()
            series = parse_metrics_text(client.metrics_text())
            assert series["repro_degraded_mode"] == 0

    def test_fault_endpoint_drives_disk_faults_end_to_end(self, fig2, tmp_path):
        from repro.engine import fsfault
        from repro.service.metrics import parse_metrics_text

        requests = self._requests(fig2)
        registry = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        try:
            with BackgroundServer(
                registry, server_options={"fault_injection": True}
            ) as server:
                client = ServiceClient(server.url)
                baseline = [row.result for row in registry.estimate(requests)]
                report = client._call("POST", "/_fault", {"spill_sessions": True})
                assert report["spilled_sessions"] == 1

                broken = client._call(
                    "POST",
                    "/_fault",
                    {
                        "disk_enospc": True,
                        "disk_bitflip": 9,
                        "drop_sessions": True,
                    },
                )
                assert broken["dropped_sessions"] == 1
                assert broken["faults"]["disk_enospc"] == 1.0
                # Re-admission reads flipped bits -> corrupt load,
                # served by recompute — identical answers, degraded on.
                degraded = [row.result for row in registry.estimate(requests)]
                assert degraded == baseline
                series = parse_metrics_text(client.metrics_text())
                assert series["repro_degraded_mode"] == 1
                # The recomputed session is dirty; spilling it hits the
                # injected ENOSPC (a second accounted failure mode).
                client._call("POST", "/_fault", {"spill_sessions": True})
                series = parse_metrics_text(client.metrics_text())
                assert series["repro_degraded_mode"] == 1

                healed = client._call(
                    "POST", "/_fault", {"reset": True, "spill_sessions": True}
                )
                assert healed["faults"]["disk_enospc"] == 0.0
                series = parse_metrics_text(client.metrics_text())
                assert series["repro_degraded_mode"] == 0
                assert client.stats()["registry"]["store_errors"] >= 2
        finally:
            fsfault.reset()

    def test_disk_fault_validation(self, tmp_path):
        registry = SessionRegistry(seed=SEED, cache_dir=str(tmp_path))
        with BackgroundServer(
            registry, server_options={"fault_injection": True}
        ) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceClientError) as caught:
                client._call("POST", "/_fault", {"disk_enospc": "yes"})
            assert caught.value.status == 400
            with pytest.raises(ServiceClientError) as caught:
                client._call("POST", "/_fault", {"disk_bitflip": -3})
            assert caught.value.status == 400


# -- malformed field types -----------------------------------------------------------------

_INSTANCE = {
    "schema": {"R": ["A1", "A2"]},
    "facts": [["R", "a1", "b1"], ["R", "a1", "b2"]],
    "fds": [["R", ["A1"], ["A2"]]],
}
_QUERY = "Ans(?x) :- R(?x, ?y)"


def _single(**fields):
    document = {"instance": _INSTANCE, "query": _QUERY, "answer": ["a1"]}
    return {**document, **fields}


def _workload(**fields):
    document = {
        "instances": {"i": _INSTANCE},
        "requests": [{"instance": "i", "query": _QUERY, "answer": ["a1"]}],
    }
    return {**document, **fields}


def _instance(**fields):
    return _single(instance={**_INSTANCE, **fields})


#: Every field a client sets, given a value of the wrong type or shape.
MALFORMED_DOCUMENTS = {
    "epsilon-string": _single(epsilon="abc"),
    "epsilon-list": _single(epsilon=[1]),
    "max-samples-string": _single(max_samples="x"),
    "generator-list": _single(generator=["M_ur"]),
    "query-number": _single(query=5),
    "answer-object": _single(answer=[{"a": 1}]),
    "default-epsilon-null": _workload(defaults={"epsilon": None}),
    "requests-number": _workload(requests=5),
    "schema-list": _instance(schema=["R"]),
    "fact-arity": _instance(facts=[["R", "a1"]]),
    "fact-undeclared-relation": _instance(facts=[["S", "a1", "b1"]]),
    "fd-unknown-attribute": _instance(fds=[["R", ["A9"], ["A2"]]]),
    "fd-lhs-number": _instance(fds=[["R", 5, ["A2"]]]),
}


class TestMalformedFields:
    @pytest.fixture(scope="class")
    def client(self):
        with BackgroundServer(seed=SEED) as server:
            with ServiceClient(server.url) as client:
                yield client

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_field_is_a_400(self, client, name):
        with pytest.raises(ServiceClientError) as caught:
            client._call("POST", "/estimate", MALFORMED_DOCUMENTS[name])
        assert caught.value.status == 400
        assert caught.value.payload.get("error")


# -- fuzzed request documents --------------------------------------------------------------

_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6)
)
#: Any JSON value: what a client may put under any key.
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _or_junk(*valid):
    """A valid value seven times in eight, else arbitrary JSON."""
    return st.integers(0, 7).flatmap(lambda roll: st.one_of(*valid) if roll else _JSON)


def _documents(required, optional):
    """Documents with the ``required`` keys present four times in five,
    else with any subset of the keys."""
    return st.integers(0, 4).flatmap(
        lambda roll: st.fixed_dictionaries(required, optional=optional)
        if roll
        else st.fixed_dictionaries({}, optional={**required, **optional})
    )


_FACTS = st.lists(
    st.lists(st.sampled_from(["R", "S", "a1", "b1", "b2"]), min_size=1, max_size=4),
    max_size=4,
)
_FUZZ_INSTANCE = _documents(
    {
        "schema": _or_junk(st.just(_INSTANCE["schema"])),
        "facts": _or_junk(st.just(_INSTANCE["facts"]), _FACTS),
        "fds": _or_junk(st.just(_INSTANCE["fds"]), st.just([["R", ["A9"], ["A2"]]])),
    },
    {},
)
_INSTANCE_DOCUMENT = _or_junk(st.just(_INSTANCE), _FUZZ_INSTANCE)
_ANSWER = st.lists(st.sampled_from(["a1", "a2", "b1"]), max_size=3)
#: The per-request keys; ``defaults`` takes five of them.
_REQUEST_FIELDS = {
    "query": _or_junk(
        st.sampled_from(
            [_QUERY, "Ans() :- R(?x, ?y)", "Ans(?x) :- R(?x, ?y), R(?z, ?y)", "Ans(?x :-"]
        )
    ),
    "generator": _or_junk(st.sampled_from(["M_ur", "M_us", "M_uo", "M_uo,1", "M_xx"])),
    "answer": _or_junk(_ANSWER),
    "answers": _or_junk(st.just("all")),
    "epsilon": _or_junk(st.floats(min_value=-1, max_value=2)),
    "delta": _or_junk(st.floats(min_value=-1, max_value=2)),
    "method": _or_junk(st.sampled_from(["auto", "fixed", "dklr", "exact"])),
    "max_samples": _or_junk(st.integers(min_value=-5, max_value=10**6)),
}
_MODE = _or_junk(st.sampled_from(["fixed", "adaptive", "turbo"]))
_OPTIONAL_FIELDS = {
    key: value for key, value in _REQUEST_FIELDS.items() if key != "query"
}
_SINGLE_DOCUMENTS = _documents(
    {"instance": _INSTANCE_DOCUMENT, "query": _REQUEST_FIELDS["query"]},
    {**_OPTIONAL_FIELDS, "label": _or_junk(st.text(max_size=4)), "mode": _MODE},
)
_ROW = _documents(
    {"instance": _or_junk(st.just("i")), "query": _REQUEST_FIELDS["query"]},
    _OPTIONAL_FIELDS,
)
_WORKLOAD_DOCUMENTS = _documents(
    {
        "instances": _or_junk(
            st.dictionaries(st.sampled_from(["i", "j"]), _INSTANCE_DOCUMENT, max_size=2)
        ),
        "requests": _or_junk(st.lists(_or_junk(_ROW), max_size=3)),
    },
    {
        "defaults": _or_junk(
            st.fixed_dictionaries(
                {},
                optional={
                    key: _REQUEST_FIELDS[key]
                    for key in ("generator", "epsilon", "delta", "method", "max_samples")
                },
            )
        ),
        "mode": _MODE,
    },
)


class TestFuzzedRequestDocuments:
    """Any JSON request document parses to requests or to a client error.

    Both ``/estimate`` shapes, with every request key drawn from valid
    values and arbitrary JSON alike: the server's parser returns requests
    or raises its 400 error, and the workload parser returns requests or
    raises :class:`~repro.io.InstanceFormatError` — never anything a
    server would answer with a 500.
    """

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(document=st.one_of(_SINGLE_DOCUMENTS, _WORKLOAD_DOCUMENTS))
    def test_document_parses_or_is_a_client_error(self, document):
        from repro.io import InstanceFormatError, instance_from_dict, workload_from_dict
        from repro.service import server

        try:
            requests, mode = server._estimate_requests(document, instance_from_dict)
        except server._BadRequest:
            pass
        else:
            assert all(isinstance(request, BatchRequest) for request in requests)
            assert mode in ("fixed", "adaptive")
        instances = document.get("instances")
        if isinstance(instances, dict) and any(
            isinstance(spec, str) for spec in instances.values()
        ):
            return  # a file path: the offline parser loads it, the service refuses it
        try:
            requests = workload_from_dict(document)
        except InstanceFormatError:
            pass
        else:
            assert all(isinstance(request, BatchRequest) for request in requests)
