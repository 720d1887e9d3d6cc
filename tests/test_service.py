"""The service plane: warm registry, micro-batching, and the HTTP API.

The load-bearing promise throughout: a served estimate is *bit-identical*
to the same request inside an offline ``batch_estimate(seed=...)`` run —
regardless of arrival order, coalescing, eviction, or which transport
(in-process registry, asyncio batcher, HTTP) carried it.
"""

import asyncio
import base64
import json
import os
import socket
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.approx.fpras import FPRASUnavailable
from repro.chains.generators import M_UR, M_US
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import BatchRequest, batch_estimate
from repro.io import instance_to_dict
from repro.service import server as server_module
from repro.service import (
    BackgroundServer,
    MicroBatcher,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
)
from repro.service.cache import Memo
from repro.workloads import figure2_database

x, y = var("x"), var("y")
EPSILON, DELTA = 0.5, 0.2
QUERY_TEXT = "Ans(?x) :- R(?x, ?y)"


def fig2_requests(generators=(M_UR, M_US), epsilon=EPSILON, delta=DELTA):
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=epsilon,
            delta=delta,
            label="fig2",
        )
        for generator in generators
        for candidate in sorted(query.answers(database), key=repr)
    ]


def fd_instance():
    """The running example: FDs beyond primary keys (M_ur out of scope)."""
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    database = Database(
        [fact("R", "a1", "b1", "c1"), fact("R", "a1", "b2", "c2")], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])


class TestSessionRegistry:
    def test_estimates_match_offline_batch_estimate(self):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        assert [r.result for r in registry.estimate(requests)] == [
            r.result for r in offline
        ]
        # A second pass is served warm and stays identical.
        assert [r.result for r in registry.estimate(requests)] == [
            r.result for r in offline
        ]
        assert registry.hits >= 2 and registry.misses == 2

    def test_arrival_order_does_not_change_estimates(self):
        requests = fig2_requests()
        offline = {id(r): o.result for r, o in zip(requests, batch_estimate(requests, seed=7))}
        registry = SessionRegistry(seed=7)
        shuffled = list(reversed(requests))
        for request, outcome in zip(shuffled, registry.estimate(shuffled)):
            assert outcome.result == offline[id(request)]

    def test_single_requests_equal_one_coalesced_batch(self):
        requests = fig2_requests(generators=(M_UR,))
        registry = SessionRegistry(seed=7)
        one_by_one = [registry.estimate([request])[0] for request in requests]
        coalesced = SessionRegistry(seed=7).estimate(requests)
        assert [r.result for r in one_by_one] == [r.result for r in coalesced]

    def test_adaptive_mode_matches_offline(self):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7, mode="adaptive")
        registry = SessionRegistry(seed=7)
        served = registry.estimate(requests, mode="adaptive")
        assert [r.result for r in served] == [r.result for r in offline]

    def test_mixed_modes_share_one_warm_session(self):
        requests = fig2_requests(generators=(M_UR,))
        registry = SessionRegistry(seed=7)
        fixed = registry.estimate(requests, mode="fixed")
        adaptive = registry.estimate(requests, mode="adaptive")
        assert len(registry.handles()) == 1
        assert [r.result for r in fixed] == [
            r.result for r in batch_estimate(requests, seed=7)
        ]
        assert [r.result for r in adaptive] == [
            r.result for r in batch_estimate(requests, seed=7, mode="adaptive")
        ]

    def test_out_of_scope_groups_become_error_rows_and_are_not_admitted(self):
        database, constraints = fd_instance()
        bad = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "a1", "b1", "c1"))
        )
        registry = SessionRegistry(seed=7)
        (outcome,) = registry.estimate([bad])
        assert not outcome.ok and "primary keys" in outcome.error
        assert registry.handles() == []
        with pytest.raises(FPRASUnavailable):
            registry.handle(database, constraints, M_UR)

    def test_lru_eviction_caps_sessions(self):
        requests = fig2_requests()  # two groups
        registry = SessionRegistry(seed=7, max_sessions=1)
        results = registry.estimate(requests)
        assert all(r.ok for r in results)
        assert len(registry.handles()) == 1
        assert registry.evictions == 1
        assert [r.result for r in results] == [
            r.result for r in batch_estimate(requests, seed=7)
        ]

    def test_eviction_spills_and_readmission_warm_starts(self, tmp_path):
        requests = fig2_requests()
        registry = SessionRegistry(seed=7, cache_dir=str(tmp_path), max_sessions=1)
        first = registry.estimate(requests)
        registry.close()
        # Both groups persisted: the evicted one on eviction, the
        # survivor on close.
        assert len([n for n in os.listdir(tmp_path) if n.endswith(".json")]) == 2
        warm = SessionRegistry(seed=7, cache_dir=str(tmp_path))
        second = warm.estimate(requests)
        assert [r.result for r in second] == [r.result for r in first]
        preloaded = warm.handles()[0].pool
        assert len(preloaded) > 0  # warm-started, not redrawn from nothing

    def test_registry_key_matches_cache_entry_key(self):
        database, constraints = figure2_database()
        registry = SessionRegistry(seed=7)
        key = registry.key_for(database, constraints, M_UR)
        from repro.engine import instance_cache_key

        assert key == instance_cache_key(
            database, constraints, "M_ur", registry.group_seed(database, constraints, M_UR)
        )

    def test_concurrent_mixed_load_is_bit_identical(self):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        with ThreadPoolExecutor(8) as executor:
            outcomes = list(
                executor.map(lambda r: registry.estimate([r])[0], requests * 3)
            )
        expected = [r.result for r in offline] * 3
        assert [o.result for o in outcomes] == expected

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionRegistry(max_sessions=0)
        # The sample plane follows the generator: no registry-wide knob.
        with pytest.raises(TypeError, match="backend"):
            SessionRegistry(backend="scalar")


class TestMicroBatcher:
    def run_submissions(self, registry, submissions):
        """Drive the batcher on a fresh loop; returns per-submission rows."""

        async def main():
            batcher = MicroBatcher(registry)
            results = await asyncio.gather(
                *(
                    batcher.submit(
                        requests[0].database,
                        requests[0].constraints,
                        requests[0].generator,
                        requests,
                        mode,
                    )
                    for requests, mode in submissions
                )
            )
            return batcher, results

        return asyncio.run(main())

    def test_concurrent_submissions_coalesce_and_match_offline(self):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        batcher, results = self.run_submissions(
            registry, [([request], "fixed") for request in requests]
        )
        flat = [outcome for chunk in results for outcome in chunk]
        assert [o.result for o in flat] == [r.result for r in offline]
        # All submissions landed while the first batch held the executor,
        # so the drain served them in (far) fewer passes than requests.
        assert batcher.batches_run < len(requests)
        assert batcher.widest_batch > 1

    def test_mixed_mode_submissions_split_correctly(self):
        requests = fig2_requests(generators=(M_UR,))
        fixed_offline = batch_estimate(requests, seed=7)
        adaptive_offline = batch_estimate(requests, seed=7, mode="adaptive")
        registry = SessionRegistry(seed=7)
        _, results = self.run_submissions(
            registry, [(requests, "fixed"), (requests, "adaptive")]
        )
        assert [o.result for o in results[0]] == [r.result for r in fixed_offline]
        assert [o.result for o in results[1]] == [r.result for r in adaptive_offline]

    def test_unknown_mode_raises(self):
        registry = SessionRegistry(seed=7)
        request = fig2_requests()[0]
        with pytest.raises(ValueError, match="unknown mode"):
            self.run_submissions(registry, [([request], "bogus")])

    def test_out_of_scope_group_resolves_to_error_rows(self):
        database, constraints = fd_instance()
        bad = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "a1", "b1", "c1"))
        )
        registry = SessionRegistry(seed=7)
        _, results = self.run_submissions(registry, [([bad], "fixed")])
        ((outcome,),) = results
        assert not outcome.ok and "primary keys" in outcome.error


@pytest.fixture(scope="module")
def server():
    """One shared background server (seed 7) for the HTTP tests."""
    with BackgroundServer(seed=7) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestHttpApi:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_single_estimate_matches_offline(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()
        for request, reference in zip(requests, offline):
            row = client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                generator=request.generator.name,
                epsilon=EPSILON,
                delta=DELTA,
                label="fig2",
            )
            assert row["estimate"] == reference.result.estimate
            assert row["samples"] == reference.result.samples_used
            assert row["method"] == reference.result.method

    def test_bulk_workload_document_matches_offline(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()
        document = {
            "defaults": {"epsilon": EPSILON, "delta": DELTA},
            "instances": {"fig2": instance_to_dict(database, constraints)},
            "requests": [
                {
                    "instance": "fig2",
                    "generator": generator,
                    "query": QUERY_TEXT,
                    "answers": "all",
                }
                for generator in ("M_ur", "M_us")
            ],
        }
        rows = client.estimate_workload(document)
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]

    def test_adaptive_mode_over_http(self, client):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7, mode="adaptive")
        database, constraints = figure2_database()
        rows = [
            client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                epsilon=EPSILON,
                delta=DELTA,
                mode="adaptive",
                label="fig2",
            )
            for request in requests
        ]
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]
        assert all("interval" in row for row in rows)

    def test_answers_endpoint_enumerates_candidates(self, client):
        database, constraints = figure2_database()
        rows = client.answers(
            database, constraints, QUERY_TEXT, epsilon=EPSILON, delta=DELTA
        )
        assert [tuple(row["answer"]) for row in rows] == [
            ("a1",), ("a2",), ("a3",)
        ]
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]

    def test_concurrent_clients_are_bit_identical(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()

        def score(request):
            return client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                generator=request.generator.name,
                epsilon=EPSILON,
                delta=DELTA,
            )

        with ThreadPoolExecutor(8) as executor:
            rows = list(executor.map(score, requests * 2))
        expected = [r.result.estimate for r in offline] * 2
        assert [row["estimate"] for row in rows] == expected

    def test_out_of_scope_request_is_an_error_row_not_an_http_error(self, client):
        database, constraints = fd_instance()
        row = client.estimate(
            database, constraints, "Ans() :- R(a1, b1, c1)", generator="M_ur"
        )
        assert "primary keys" in row["error"]

    def test_stats_report_sessions_and_batches(self, client):
        stats = client.stats()
        assert stats["registry"]["sessions"] >= 1
        assert stats["batching"]["batches_run"] >= 1
        assert stats["requests_served"] >= 1
        for group in stats["registry"]["groups"]:
            assert group["pool_samples"] >= 0
            assert group["generator"]


class TestHttpErrors:
    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/estimate", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400

    def test_unknown_path_is_404_and_lists_routes(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + "/nope")
        assert caught.value.code == 404
        payload = json.loads(caught.value.read())
        assert "/estimate" in payload["paths"]

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + "/estimate")  # GET
        assert caught.value.code == 405

    def test_instance_file_paths_are_rejected(self, client):
        document = {
            "instances": {"evil": "/etc/passwd"},
            "requests": [{"instance": "evil", "query": "Ans() :- R(a)"}],
        }
        with pytest.raises(ServiceClientError) as caught:
            client.estimate_workload(document)
        assert caught.value.status == 400
        assert "inline" in str(caught.value)

    def test_missing_instance_is_400_with_message(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.estimate_workload({"instance": "nope", "query": "Ans() :- R(a)"})
        assert caught.value.status == 400

    def test_backend_field_is_400_in_both_body_shapes(self, client):
        # The sample plane follows the generator; no body may pick it.
        database, constraints = figure2_database()
        instance = instance_to_dict(database, constraints)
        single = {"instance": instance, "query": QUERY_TEXT, "answer": ["a1"]}
        workload = {
            "instances": {"fig2": instance},
            "requests": [{"instance": "fig2", "query": QUERY_TEXT, "answer": ["a1"]}],
        }
        for document in (single, workload):
            with pytest.raises(ServiceClientError) as caught:
                client.estimate_workload({**document, "backend": "scalar"})
            assert caught.value.status == 400
            assert "follows the generator" in str(caught.value)

    def test_answers_rejects_fixed_answer(self, server):
        database, constraints = figure2_database()
        body = json.dumps(
            {
                "instance": instance_to_dict(database, constraints),
                "query": QUERY_TEXT,
                "answer": ["a1"],
            }
        ).encode()
        request = urllib.request.Request(
            server.url + "/answers", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400


def _connect(url):
    host, port = url.removeprefix("http://").split(":")
    raw = socket.create_connection((host, int(port)), timeout=10)
    return raw, raw.makefile("rb")


def _read_response(stream):
    """One HTTP response off ``stream``: ``(status, headers, body)``."""
    status_line = stream.readline()
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _post(path, document):
    body = json.dumps(document).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _connections(client):
    return client.metrics()["repro_connections_total"]


def _fig2_single_documents():
    database, constraints = figure2_database()
    instance = instance_to_dict(database, constraints)
    return [
        {
            "instance": instance,
            "query": QUERY_TEXT,
            "generator": generator,
            "answer": [answer],
            "epsilon": EPSILON,
            "delta": DELTA,
        }
        for generator in ("M_ur", "M_us")
        for answer in ("a1", "a2", "a3")
    ]


class TestKeepAlive:
    def test_requests_on_one_socket_are_answered_in_order(self, server, client):
        documents = _fig2_single_documents()
        fresh = []
        for document in documents:
            request = urllib.request.Request(
                server.url + "/estimate",
                data=json.dumps(document).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                fresh.append(json.loads(response.read())["results"])
        before = _connections(client)
        raw, stream = _connect(server.url)
        with raw, stream:
            # One at a time, then the rest pipelined in a single write.
            raw.sendall(_post("/estimate", documents[0]))
            served = [_read_response(stream)]
            raw.sendall(b"".join(_post("/estimate", d) for d in documents[1:]))
            served += [_read_response(stream) for _ in documents[1:]]
        assert [status for status, _, _ in served] == [200] * len(documents)
        assert all("connection" not in headers for _, headers, _ in served)
        rows = [json.loads(body)["results"] for _, _, body in served]
        assert rows == fresh
        offline = batch_estimate(fig2_requests(), seed=7)
        assert [(row["estimate"], row["samples"]) for (row,) in rows] == [
            (r.result.estimate, r.result.samples_used) for r in offline
        ]
        assert _connections(client) - before == 1

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ],
    )
    def test_close_requests_get_connection_close_then_eof(self, server, request_bytes):
        raw, stream = _connect(server.url)
        with raw, stream:
            raw.sendall(request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, _ = _read_response(stream)
            assert status == 200 and headers["connection"] == "close"
            assert stream.read() == b""

    def test_stop_closes_idle_connections_at_once(self):
        with BackgroundServer(seed=7) as running:
            used, used_stream = _connect(running.url)
            used.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(used_stream)[0] == 200
            silent, silent_stream = _connect(running.url)
            client = ServiceClient(running.url)
            client.healthz()  # leaves a pooled connection open
            began = time.perf_counter()
        assert time.perf_counter() - began < 1.0
        for raw, stream in ((used, used_stream), (silent, silent_stream)):
            with raw, stream:
                assert stream.read() == b""
        client.close()

    def test_pooled_connection_survives_a_server_restart(self):
        database, constraints = figure2_database()
        with BackgroundServer(seed=7) as first:
            port = first.address[1]
            client = ServiceClient(first.url)
            row = client.estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
        with BackgroundServer(seed=7, port=port) as second:
            # The pooled connection died with the first server.
            again = client.estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
            assert again == row
            assert _connections(client) == 1
        client.close()

    def test_one_client_shared_by_eight_threads(self, server):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()
        with ServiceClient(server.url) as shared:
            before = _connections(shared)

            def score(request):
                return shared.estimate(
                    database,
                    constraints,
                    QUERY_TEXT,
                    list(request.answer),
                    generator=request.generator.name,
                    epsilon=EPSILON,
                    delta=DELTA,
                )

            with ThreadPoolExecutor(8) as executor:
                rows = list(executor.map(score, requests * 8))
            opened = _connections(shared) - before
        assert [(row["estimate"], row["samples"]) for row in rows] == [
            (r.result.estimate, r.result.samples_used) for r in offline
        ] * 8
        assert 1 <= opened <= 8

    def test_read_timeout_does_not_bound_execution(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.3)
        database, constraints = figure2_database()
        options = {"fault_injection": True}
        with BackgroundServer(seed=7, server_options=options) as running:
            with ServiceClient(running.url) as slow:
                slow._call("POST", "/_fault", {"slow_seconds": 0.6})
                row = slow.estimate(
                    database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
                )
                assert row["samples"] > 0
                slow._call("POST", "/_fault", {"reset": True})
            # The bound still drops a peer that stalls mid-request.
            raw, stream = _connect(running.url)
            with raw, stream:
                raw.sendall(b"GET /healthz HTTP/1.1\r\n")
                assert stream.read() == b""


class TestFraming:
    """Framings that would leave body bytes to be parsed as a next request."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\n\r\n"

    def _only_response(self, server, request_bytes):
        raw, stream = _connect(server.url)
        with raw, stream:
            raw.sendall(request_bytes)
            status, headers, body = _read_response(stream)
            assert headers["connection"] == "close"
            assert stream.read() == b""  # the leftover bytes were never answered
        return status, json.loads(body)["error"]

    def test_transfer_encoding_is_rejected_and_closes(self, server):
        status, error = self._only_response(
            server,
            b"POST /estimate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(self.SMUGGLED)
            + self.SMUGGLED
            + b"\r\n0\r\n\r\n",
        )
        assert status == 400 and "Transfer-Encoding" in error

    def test_conflicting_content_lengths_are_rejected_and_close(self, server):
        status, error = self._only_response(
            server,
            b"POST /estimate HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: %d\r\n\r\n{}" % (2 + len(self.SMUGGLED))
            + self.SMUGGLED,
        )
        assert status == 400 and "conflicting Content-Length" in error

    def test_oversized_body_is_413_and_closes(self, server):
        status, _ = self._only_response(
            server,
            b"POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (server_module.MAX_BODY_BYTES + 1)
            + self.SMUGGLED,
        )
        assert status == 413

    def test_repeated_equal_content_length_is_served(self, server):
        raw, stream = _connect(server.url)
        with raw, stream:
            raw.sendall(
                b"POST /estimate HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 2\r\n\r\n[]" + self.SMUGGLED
            )
            status, headers, _ = _read_response(stream)
            assert status == 400 and "connection" not in headers  # body read
            assert _read_response(stream)[0] == 200


def _numbered_instance(number, value_type=str):
    """Figure 2 plus one fact ``R(number, "b1")``: a distinct instance per number."""
    database, constraints = figure2_database()
    extra = fact("R", value_type(number), "b1")
    return Database([*database.facts, extra], schema=database.schema), constraints


class TestInstanceMemo:
    def test_memo_evicts_least_recently_used(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "b" is now the oldest
        memo.put("c", 3)
        assert (memo.get("a"), memo.get("b"), memo.get("c")) == (1, None, 3)
        assert len(memo) == 2

    def test_memo_shared_by_threads_stays_bounded_and_consistent(self):
        memo = Memo(8)

        def churn(worker):
            for step in range(2000):
                key = (worker + step) % 24
                memo.put(key, key * 10)
                value = memo.get((key + 1) % 24)
                assert value is None or value == ((key + 1) % 24) * 10
                assert len(memo) <= 8
            return worker

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as executor:
                assert sorted(executor.map(churn, range(8), timeout=60)) == list(range(8))
        finally:
            sys.setswitchinterval(interval)
        assert len(memo) == 8

    def test_server_memo_holds_at_most_max_sessions_pairs(self):
        with BackgroundServer(seed=7, max_sessions=2) as running:
            with ServiceClient(running.url) as client:
                for number in range(5):
                    database, constraints = _numbered_instance(number)
                    row = client.estimate(
                        database, constraints, QUERY_TEXT, ["a1"],
                        epsilon=EPSILON, delta=DELTA,
                    )
                    assert row["samples"] > 0
                    assert len(running._instances) <= 2
            assert len(running._instances) == 2

    def test_large_instance_documents_are_parsed_every_time(self, monkeypatch):
        monkeypatch.setattr(server_module, "INSTANCE_MEMO_MAX_BYTES", 64)
        database, constraints = figure2_database()
        with BackgroundServer(seed=7) as running:
            with ServiceClient(running.url) as client:
                rows = [
                    client.estimate(
                        database, constraints, QUERY_TEXT, ["a1"],
                        epsilon=EPSILON, delta=DELTA,
                    )
                    for _ in range(2)
                ]
            assert len(running._instances) == 0
        (offline,) = batch_estimate(fig2_requests(generators=(M_UR,))[:1], seed=7)
        assert [(row["estimate"], row["samples"]) for row in rows] == [
            (offline.result.estimate, offline.result.samples_used)
        ] * 2

    def test_equal_instances_of_different_value_types_stay_apart(self, server):
        as_int = _numbered_instance(1, int)
        as_float = _numbered_instance(1, float)
        assert as_int == as_float  # 1 == 1.0: equality would conflate them
        with ServiceClient(server.url) as client:
            texts = [client._instance_text(*pair) for pair in (as_int, as_float)]
        assert texts == [json.dumps(instance_to_dict(*pair)) for pair in (as_int, as_float)]
        assert texts[0] != texts[1]
        parsed = [server._parse_instance(json.loads(text)) for text in texts]
        assert [sorted(map(repr, d.facts)) for d, _ in parsed] == [
            sorted(map(repr, d.facts)) for d, _ in (as_int, as_float)
        ]


class TestServedCachePersistence:
    def test_server_shutdown_spills_cache_for_warm_restart(self, tmp_path):
        database, constraints = figure2_database()
        with BackgroundServer(seed=7, cache_dir=str(tmp_path)) as first:
            row = ServiceClient(first.url).estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
        entries = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
        assert len(entries) == 1
        with BackgroundServer(seed=7, cache_dir=str(tmp_path)) as second:
            warm_client = ServiceClient(second.url)
            warm = warm_client.estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
            assert warm["estimate"] == row["estimate"]
            assert warm["samples"] == row["samples"]
            pool_samples = warm_client.stats()["registry"]["groups"][0]["pool_samples"]
        with open(os.path.join(tmp_path, entries[0])) as handle:
            document = json.load(handle)
        persisted = len(base64.b64decode(document["samples"])) // (8 * document["words"])
        assert persisted >= pool_samples > 0  # admission preloaded the prefix


class TestCliServeParser:
    def test_serve_arguments_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "9000",
                "--seed", "7",
                "--cache-dir", "/tmp/cache",
                "--max-sessions", "4",
                "--workers", "2",
            ]
        )
        assert args.command == "serve"
        assert (args.host, args.port, args.seed) == ("0.0.0.0", 9000, 7)
        assert args.max_sessions == 4 and args.workers == 2
        assert not hasattr(args, "backend")
        # The plane follows the generator: --backend is an unknown flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "scalar"])

    def test_loadtest_arguments_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadtest", "--workers", "2", "--kill-worker", "--backoff", "0.01"]
        )
        assert args.command == "loadtest"
        assert args.workers == 2 and args.kill_worker and args.backoff == 0.01
