"""The one group path: grouping, request-order rows, and parameter checks.

Every entry point — offline ``batch_estimate`` (serial or fanned out),
``SessionRegistry.estimate`` and the served ``/estimate`` — groups a
request list with ``group_positions``, runs each group through
``run_group`` and puts the rows back with ``in_request_order``.  The
parity tests here drive one interleaved list, mixing laws, a shared
singleton law, an out-of-scope group and an invalid request, through all
of them and demand identical rows in request order.
"""

import math
import random

import pytest

from repro.chains.generators import M_UO, M_UR, M_UR1, M_US, M_US1
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import MODES, BatchRequest, EstimationSession, batch_estimate
from repro.engine.batch import group_positions, run_group
from repro.io import (
    InstanceFormatError,
    batch_results_to_rows,
    instance_to_dict,
    workload_from_dict,
)
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
)
from repro.reductions.graphs import path_graph
from repro.reductions.vizing import independent_set_database
from repro.workloads import figure2_database

x, y = var("x"), var("y")


def fd_instance():
    """FDs beyond primary keys: ``M_us`` has no FPRAS here."""
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    database = Database(
        [fact("R", "a1", "b1", "c1"), fact("R", "a1", "b2", "c2")], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])


def mixed_document() -> dict:
    """One interleaved workload over every kind of group.

    ``M_ur`` and ``M_us`` on one key instance, ``M_ur,1`` and ``M_us,1``
    (one law on keys), an out-of-scope ``M_us`` group over FDs, and one
    ε ≤ 0 request inside the ``M_ur`` group.
    """
    survivors = "Ans(?x) :- R(?x, ?y)"
    single = "Ans() :- R(a1, b1)"
    rows = [
        {"instance": "keys", "generator": "M_ur", "query": survivors, "answer": ["a1"]},
        {"instance": "keys", "generator": "M_us", "query": survivors, "answer": ["a1"]},
        {"instance": "fds", "generator": "M_us", "query": "Ans() :- R(a1, b1, c1)"},
        {"instance": "keys", "generator": "M_ur,1", "query": single},
        {"instance": "keys", "generator": "M_ur", "query": survivors, "answer": ["a2"],
         "epsilon": 0.0},
        {"instance": "keys", "generator": "M_us,1", "query": single},
        {"instance": "keys", "generator": "M_us", "query": survivors, "answer": ["a3"]},
        {"instance": "keys", "generator": "M_ur", "query": survivors, "answer": ["a3"]},
        {"instance": "fds", "generator": "M_us", "query": "Ans() :- R(a1, b2, c2)"},
    ]
    return {
        "defaults": {"epsilon": 0.5, "delta": 0.2},
        "instances": {
            "keys": instance_to_dict(*figure2_database()),
            "fds": instance_to_dict(*fd_instance()),
        },
        "requests": rows,
    }


@pytest.fixture(scope="module", params=[None, 2], ids=["in-process", "workers-2"])
def served(request):
    options = {} if request.param is None else {"workers": request.param}
    with BackgroundServer(seed=7, server_options=options) as running:
        with ServiceClient(running.url) as client:
            yield client


class TestGroupHelpers:
    def test_group_positions_are_first_seen_and_name_the_law(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = [
            BatchRequest(database, constraints, generator, query, ("a1",))
            for generator in (M_UR, M_US, M_UR1, M_UR, M_US1, M_US)
        ]
        groups = group_positions(requests)
        assert list(groups.values()) == [
            [0, 3],
            [1, 5],
            [2, 4],  # M_ur,1 and M_us,1 share one law on keys
        ]
        assert [law.name for _, _, law in groups] == ["M_ur", "M_us", "M_ur,1"]

    @pytest.mark.parametrize("mode", MODES)
    def test_run_group_rows_follow_request_order(self, mode):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = [
            BatchRequest(
                database, constraints, M_UR, query, (c,), epsilon=eps, delta=0.2
            )
            for c, eps in (("a1", 0.5), ("a2", -1.0), ("a3", 0.5), ("a1", 2.0))
        ]
        session = EstimationSession(database, constraints, M_UR)
        rows = run_group(session, session.pool_for_seed(7), requests, mode)
        assert [row.request for row in rows] == requests
        assert [row.ok for row in rows] == [True, False, True, False]


def fact_query(item):
    return boolean_cq(atom(item.relation, *item.values))


def one_loop_requests(database, constraints, generator, facts, clash):
    """Auto, fixed and dklr requests with different budgets, a truncated
    one, an impossible answer (the conflicting pair ``clash``) and ε = 0."""
    f0, f1, f2 = (fact_query(item) for item in facts)
    impossible = boolean_cq(*(atom(item.relation, *item.values) for item in clash))
    rows = [
        (f0, dict(epsilon=0.4, delta=0.1, method="fixed")),
        (f1, dict(epsilon=0.5, delta=0.2, method="auto")),
        (f0, dict(epsilon=0.5, delta=0.2, method="dklr")),
        (f2, dict(epsilon=0.6, delta=0.3, method="fixed")),
        (f1, dict(epsilon=0.5, delta=0.2, method="dklr", max_samples=3)),
        (impossible, dict(epsilon=0.5, delta=0.2)),
        (f0, dict(epsilon=0.0, delta=0.2)),
    ]
    return [
        BatchRequest(database, constraints, generator, query, **fields)
        for query, fields in rows
    ]


def figure2_case():
    database, constraints = figure2_database()
    facts = sorted(database.facts, key=repr)
    return database, constraints, M_UR, facts[:3], facts[:2]


def multikey_case():
    instance = independent_set_database(path_graph(4))
    node = instance.node_to_fact
    facts = [node[0], node[2], node[3]]
    return instance.database, instance.constraints, M_UO, facts, [node[0], node[1]]


#: Three pools: seeded vector (M_ur), seeded walk (multi-key M_uo) and one
#: seeded from a caller's random.Random (a vector pool too); each factory
#: opens a fresh pool, seeded alike.
POOL_CASES = {
    "seeded-vector": (figure2_case, lambda session: session.pool_for_seed(11)),
    "seeded-walk": (multikey_case, lambda session: session.pool_for_seed(11)),
    "caller-rng": (figure2_case, lambda session: session.pool(random.Random(11))),
}


class TestOneRequestLoop:
    """Every request reads the shared pool from position zero, once."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_no_over_draw_and_partition_independence(self, case, mode):
        build, open_pool = POOL_CASES[case]
        database, constraints, generator, facts, clash = build()
        requests = one_loop_requests(database, constraints, generator, facts, clash)
        session = EstimationSession(database, constraints, generator)
        pool = open_pool(session)
        rows = run_group(session, pool, requests, mode)
        assert [row.ok for row in rows] == [True] * 6 + [False]
        assert rows[5].result.method == "possibility-zero"
        assert not rows[4].result.certified_zero  # truncated: nothing certified
        # The pool holds exactly the longest prefix any request read,
        # rounded up to the pool's batch.
        longest = max(row.result.samples_used for row in rows if row.ok)
        batch = pool.batch_size
        assert len(pool) == math.ceil(longest / batch) * batch
        # Each request alone, on a fresh session and pool seeded alike.
        singles = []
        for request in requests:
            alone = EstimationSession(database, constraints, generator)
            singles += run_group(alone, open_pool(alone), [request], mode)
        assert singles == rows


class TestEntryPointParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_entry_point_returns_identical_rows(self, mode, served):
        document = mixed_document()
        requests = workload_from_dict(document)
        offline = batch_results_to_rows(batch_estimate(requests, seed=7, mode=mode))
        assert [("error" in row) for row in offline] == [
            False, False, True, False, True, False, False, False, True
        ]
        assert "epsilon" in offline[4]["error"]
        # M_ur,1 and M_us,1 read one pool: equal rows under their own labels.
        assert offline[3]["estimate"] == offline[5]["estimate"]
        assert (offline[3]["generator"], offline[5]["generator"]) == ("M_ur,1", "M_us,1")
        fanned = batch_estimate(requests, seed=7, mode=mode, workers=2)
        assert batch_results_to_rows(fanned) == offline
        registry = SessionRegistry(seed=7)
        assert batch_results_to_rows(registry.estimate(requests, mode)) == offline
        assert served.estimate_workload({**document, "mode": mode}) == offline


#: Invalid request fields that used to come back as certified zeros.
INVALID_FIELDS = [
    {"epsilon": float("inf")},
    {"epsilon": True},
    {"method": "dklr", "max_samples": 0},
    {"method": "dklr", "max_samples": -5},
    {"method": "dklr", "max_samples": 2.5},
]


def key_instance():
    """``P(R(a1, b1)) = 1/4`` under ``M_ur``: never a certified zero."""
    schema = Schema.from_spec({"R": ["A", "B"]})
    database = Database(
        [fact("R", "a1", "b1"), fact("R", "a1", "b2"), fact("R", "a1", "b3"),
         fact("R", "a2", "b1")],
        schema=schema,
    )
    return database, FDSet(schema, [fd("R", "A", "B")])


class TestInvalidParameters:
    QUERY = "Ans() :- R(a1, b1)"

    @pytest.mark.parametrize("fields", INVALID_FIELDS, ids=repr)
    @pytest.mark.parametrize("mode", MODES)
    def test_offline_rows_are_errors_not_certified_zeros(self, fields, mode):
        document = {
            "instances": {"bug": instance_to_dict(*key_instance())},
            "requests": [{"instance": "bug", "query": self.QUERY, **fields}],
        }
        try:
            requests = workload_from_dict(document)
        except InstanceFormatError:
            return  # rejected at parse time: the CLI exits with an error
        (row,) = batch_results_to_rows(batch_estimate(requests, seed=7, mode=mode))
        assert "error" in row and not row.get("certified_zero"), row

    @pytest.mark.parametrize("fields", INVALID_FIELDS, ids=repr)
    @pytest.mark.parametrize("mode", MODES)
    def test_served_rows_are_errors_or_400s(self, fields, mode, served):
        database, constraints = key_instance()
        try:
            row = served.estimate(
                database, constraints, self.QUERY, mode=mode, **fields
            )
        except ServiceClientError as error:
            assert error.status == 400, error
            return
        assert "error" in row and not row.get("certified_zero"), row

    @pytest.mark.parametrize("mode", MODES)
    def test_truncated_all_zero_rows_are_not_certified(self, mode):
        # P = 1/4, but two draws of seed 7 miss: an honest zero, not a
        # certified one — only a positivity-sized run may certify.
        document = {
            "instances": {"bug": instance_to_dict(*key_instance())},
            "requests": [
                {"instance": "bug", "query": self.QUERY, "method": "dklr",
                 "max_samples": 2}
            ],
        }
        requests = workload_from_dict(document)
        (row,) = batch_results_to_rows(batch_estimate(requests, seed=7, mode=mode))
        assert row["method"].endswith("-truncated")
        assert (row["estimate"], row["samples"]) == (0.0, 2)
        assert row["certified_zero"] is False

    def test_parse_rejects_booleans_and_fractional_sample_caps(self):
        document = {
            "instances": {"bug": instance_to_dict(*key_instance())},
            "requests": [{"instance": "bug", "query": self.QUERY}],
        }
        for fields, message in (
            ({"epsilon": True}, "'epsilon' must be a number"),
            ({"max_samples": False}, "'max_samples' must be a number"),
            ({"max_samples": 2.5}, "'max_samples' must be an integer"),
        ):
            document["requests"][0].update(fields)
            with pytest.raises(InstanceFormatError, match=message):
                workload_from_dict(document)
            for key in fields:
                del document["requests"][0][key]
        document["requests"][0]["max_samples"] = 3.0
        (request,) = workload_from_dict(document)
        assert request.max_samples == 3 and isinstance(request.max_samples, int)
