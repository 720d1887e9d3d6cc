"""One sampling law per pool: the singleton variants on primary keys.

On primary keys ``M_ur,1``, ``M_us,1`` and ``M_uo,1`` all keep one
uniformly chosen survivor per conflicting block, independently across
blocks.  These tests pin that law exactly (state-space enumeration for
``M_uo,1``) and check that every seeded path — grouping, store entry,
registry handle, plane, HTTP — treats the three as one pool, and that
per-call runs size their samples from that one law.
"""

import math
import os
import random
from fractions import Fraction
from itertools import product

import pytest

from repro.approx.fpras import fpras_ocqa
from repro.chains.generators import (
    ALL_GENERATORS,
    M_UO,
    M_UO1,
    M_UR,
    M_UR1,
    M_US,
    M_US1,
)
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import Atom, atom, boolean_cq, cq, var
from repro.engine import BatchRequest, EstimationSession, batch_estimate, sampling_law
from repro.exact import exact_ocqa
from repro.exact.frequencies import rrfreq1, srfreq1
from repro.exact.state_space import StateSpaceEngine
from repro.service import BackgroundServer, ServiceClient, SessionRegistry
from repro.workloads import figure2_database

SINGLETONS = (M_UR1, M_US1, M_UO1)
BLOCK_SIZES = [(2,), (3, 2), (4, 3, 2), (5, 3), (3, 3, 2)]


def keyed_blocks(sizes):
    """Conflicting blocks of the given sizes over R(A, B), key A → B, plus
    one conflict-free fact."""
    schema = Schema.from_spec({"R": ["A", "B"]})
    facts = [
        fact("R", f"a{block}", f"b{member}")
        for block, size in enumerate(sizes)
        for member in range(size)
    ]
    facts.append(fact("R", "free", "b0"))
    return Database(facts, schema=schema), FDSet(schema, [fd("R", "A", "B")])


def fig2_singleton_requests():
    database, constraints = figure2_database()
    x, y = var("x"), var("y")
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=0.5,
            delta=0.2,
            label="fig2",
        )
        for generator in SINGLETONS
        for candidate in sorted(query.answers(database), key=repr)
    ]


class TestExactLaw:
    @pytest.mark.parametrize("sizes", BLOCK_SIZES, ids=str)
    def test_muo1_is_one_uniform_survivor_per_block(self, sizes):
        database, constraints = keyed_blocks(sizes)
        engine = StateSpaceEngine(database, constraints)
        distribution = {
            frozenset(repair.facts): probability
            for repair, probability in engine.repair_distribution(M_UO1).items()
        }
        free = fact("R", "free", "b0")
        expected = {
            frozenset(
                [free]
                + [fact("R", f"a{block}", f"b{m}") for block, m in enumerate(members)]
            ): Fraction(1, math.prod(sizes))
            for members in product(*(range(size) for size in sizes))
        }
        assert distribution == expected

    @pytest.mark.parametrize("sizes", BLOCK_SIZES, ids=str)
    def test_ground_query_frequencies_agree(self, sizes):
        database, constraints = keyed_blocks(sizes)
        # The conflict-free fact, one fact of the first block and (with
        # several blocks) one of the last: joint survival Π 1/|B|.
        atoms = [Atom("R", ("free", "b0")), Atom("R", ("a0", "b0"))]
        truth = Fraction(1, sizes[0])
        if len(sizes) > 1:
            atoms.append(Atom("R", (f"a{len(sizes) - 1}", "b1")))
            truth /= sizes[-1]
        query = boolean_cq(*atoms)
        uo1 = exact_ocqa(database, constraints, M_UO1, query)
        assert rrfreq1(database, constraints, query) == truth
        assert srfreq1(database, constraints, query) == truth
        assert uo1 == truth


class TestOneLawOnePool:
    def test_sampling_law_names_the_singleton_law_on_keys_only(self):
        database, constraints = figure2_database()
        for generator in ALL_GENERATORS:
            expected = M_UR1 if generator.singleton_only else generator
            assert sampling_law(generator, constraints) is expected
        # Beyond primary keys every generator is its own law.
        schema = Schema.from_spec({"R": ["A", "B", "C"]})
        fds = FDSet(schema, [fd("R", "A", "B"), fd("R", "B", "C")])
        for generator in (M_UR, M_US, M_UO, M_UO1, M_UR1, M_US1):
            assert sampling_law(generator, fds) is generator

    def test_seeded_pools_are_one_stream(self):
        database, constraints = figure2_database()
        reference = EstimationSession(database, constraints, M_UR1).pool_for_seed(99)
        rows = reference.packed_prefix(1024)
        for generator in (M_US1, M_UO1):
            session = EstimationSession(database, constraints, generator)
            assert session.seeded_plane == "vector"
            pool = session.pool_for_seed(99)
            assert (pool.packed_prefix(1024) == rows).all()

    def test_mixed_workload_forms_one_group(self, tmp_path):
        requests = fig2_singleton_requests()
        results = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert all(result.ok for result in results)
        assert len(os.listdir(tmp_path)) == 1
        per_generator = len(requests) // 3
        by_generator = [
            results[i * per_generator : (i + 1) * per_generator] for i in range(3)
        ]
        for rows in zip(*by_generator):
            assert len({(r.result.estimate, r.result.samples_used) for r in rows}) == 1
        for request, result in zip(requests, results):
            assert result.request.generator is request.generator

        registry = SessionRegistry(seed=7)
        served = registry.estimate(requests)
        assert registry.stats()["sessions"] == 1
        assert [r.result.estimate for r in served] == [
            r.result.estimate for r in results
        ]
        database, constraints = figure2_database()
        handle = registry.handle(database, constraints, M_UR1)
        assert registry.handle(database, constraints, M_US1) is handle
        assert registry.handle(database, constraints, M_UO1) is handle
        assert handle.session.generator is M_UR1
        assert registry.key_for(database, constraints, M_UO1) == handle.key


class TestOneLawOneBudget:
    """Per-call runs size samples from the law, as batched runs do."""

    def test_per_call_rows_match_across_singletons_and_batch(self):
        database, constraints = figure2_database()
        x, y = var("x"), var("y")
        query = cq((x, y), (atom("R", x, y),))
        answer = ("a1", "b1")
        sessions = [
            EstimationSession(database, constraints, generator)
            for generator in SINGLETONS
        ]
        assert len({session.positivity_bound(query) for session in sessions}) == 1
        offline = batch_estimate(
            [
                BatchRequest(
                    database, constraints, generator, query, answer=answer,
                    epsilon=0.3, delta=0.1, method="fixed",
                )
                for generator in SINGLETONS
            ],
            seed=7,
        )
        budgets = {row.result.samples_used for row in offline}
        assert len(budgets) == 1
        for seed in (0, 1, 2):
            fixed = [
                fpras_ocqa(
                    database, constraints, generator, query, answer,
                    epsilon=0.3, delta=0.1, method="fixed",
                    rng=random.Random(seed),
                )
                for generator in SINGLETONS
            ]
            assert len({(r.estimate, r.samples_used) for r in fixed}) == 1, fixed
            assert {r.samples_used for r in fixed} == budgets
            adaptive = [
                session.estimate_adaptive(
                    query, answer, epsilon=0.3, delta=0.1, rng=random.Random(seed)
                )
                for session in sessions
            ]
            assert len({(r.estimate, r.samples_used) for r in adaptive}) == 1


def test_served_singleton_rows_share_one_session_and_keep_their_labels():
    database, constraints = figure2_database()
    with BackgroundServer(seed=7) as running, ServiceClient(running.url) as client:
        rows = [
            client.estimate(
                database,
                constraints,
                "Ans() :- R(a1, b1)",
                generator=name,
                epsilon=0.5,
                delta=0.2,
                label="fig2",
            )
            for name in ("M_ur,1", "M_us,1")
        ]
        stats = client.stats()
    assert [row["generator"] for row in rows] == ["M_ur,1", "M_us,1"]
    assert rows[0]["estimate"] == rows[1]["estimate"]
    assert rows[0]["samples"] == rows[1]["samples"]
    assert stats["registry"]["sessions"] == 1
    assert stats["registry"]["groups"][0]["generator"] == "M_ur,1"
