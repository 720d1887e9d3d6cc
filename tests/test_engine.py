"""Estimation-session tests: seeded parity with the per-call API, caching.

The engine's central promise is that batching is *purely* an optimization:
under the same RNG seed, a session — with or without a shared sample pool —
produces bit-for-bit the results of the per-call FPRAS wrappers.
"""

import math
import random

import pytest

from repro.approx.fpras import FPRASUnavailable, fixed_budget_estimate, fpras_ocqa
from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core.interning import InstanceIndex
from repro.core.queries import QueryError, atom, boolean_cq, cq, var
from repro.engine import BatchRequest, EstimationSession, SamplePool
from repro.engine.batch import run_group
from repro.workloads import figure2_database

x, y = var("x"), var("y")

#: Cheap-but-meaningful accuracy settings for the parity tests (the values
#: themselves are irrelevant: both sides must agree exactly).
EPSILON, DELTA = 0.5, 0.2

ALL_SIX = [M_UR, M_US, M_UO, M_UR1, M_US1, M_UO1]


@pytest.fixture
def fig2():
    return figure2_database()


@pytest.fixture
def survival_query():
    return boolean_cq(atom("R", "a1", "b1"))


def result_fields(result):
    """Comparable projection (fixed-budget runs carry NaN ε/δ)."""
    return (result.estimate, result.samples_used, result.method, result.certified_zero)


class TestSeededParity:
    @pytest.mark.parametrize("generator", ALL_SIX)
    @pytest.mark.parametrize("method", ["fixed", "dklr"])
    def test_estimate_matches_fpras_ocqa_bit_for_bit(
        self, fig2, survival_query, generator, method
    ):
        database, constraints = fig2
        per_call = fpras_ocqa(
            database,
            constraints,
            generator,
            survival_query,
            epsilon=EPSILON,
            delta=DELTA,
            method=method,
            rng=random.Random(41),
        )
        session = EstimationSession(database, constraints, generator)
        via_session = session.estimate(
            survival_query,
            epsilon=EPSILON,
            delta=DELTA,
            method=method,
            rng=random.Random(41),
        )
        assert via_session == per_call

    @pytest.mark.parametrize("generator", ALL_SIX)
    def test_pooled_estimate_matches_per_call_bit_for_bit(
        self, fig2, survival_query, generator
    ):
        database, constraints = fig2
        session = EstimationSession(database, constraints, generator)
        pool = session.pool(random.Random(43))
        pooled = session.estimate_pooled(
            pool, survival_query, epsilon=EPSILON, delta=DELTA
        )
        per_call = fpras_ocqa(
            database,
            constraints,
            generator,
            survival_query,
            epsilon=EPSILON,
            delta=DELTA,
            rng=random.Random(43),
        )
        assert pooled == per_call

    def test_many_candidates_share_one_pool_and_match_per_call(self, fig2):
        database, constraints = fig2
        query = cq((x,), (atom("R", x, y),))
        candidates = sorted(query.answers(database), key=repr)
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(47))
        pooled = [
            session.estimate_pooled(pool, query, c, epsilon=EPSILON, delta=DELTA)
            for c in candidates
        ]
        per_call = [
            fpras_ocqa(
                database,
                constraints,
                M_UR,
                query,
                c,
                epsilon=EPSILON,
                delta=DELTA,
                rng=random.Random(47),
            )
            for c in candidates
        ]
        assert pooled == per_call
        # One sampling pass served every candidate: the pool holds the
        # longest prefix any single request consumed, in whole batches.
        longest = max(result.samples_used for result in pooled)
        assert len(pool) == -(-longest // pool.batch_size) * pool.batch_size

    def test_fixed_budget_matches_per_call(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(53))
        pooled = session.fixed_budget_pooled(pool, survival_query, samples=500)
        per_call = fixed_budget_estimate(
            database,
            constraints,
            M_UR,
            survival_query,
            samples=500,
            rng=random.Random(53),
        )
        assert result_fields(pooled) == result_fields(per_call)
        assert math.isnan(pooled.epsilon) and math.isnan(pooled.delta)

    def test_run_group_equals_individual_pooled_calls(self, fig2):
        database, constraints = fig2
        query = cq((x,), (atom("R", x, y),))
        requests = [
            BatchRequest(
                database, constraints, M_UR, query, c, epsilon=EPSILON, delta=DELTA
            )
            for c in sorted(query.answers(database), key=repr)
        ]
        session = EstimationSession(database, constraints, M_UR)
        batch = run_group(session, session.pool(random.Random(59)), requests)
        single_pool = session.pool(random.Random(59))
        singles = [
            session.estimate_pooled(
                single_pool, r.query, r.answer, epsilon=EPSILON, delta=DELTA
            )
            for r in requests
        ]
        assert [row.result for row in batch] == singles


class TestCaching:
    def test_cache_hits_never_change_results(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        first = session.estimate(
            survival_query, epsilon=EPSILON, delta=DELTA, rng=random.Random(61)
        )
        # Second call hits the decomposition, witness, possibility and bound
        # caches; with the same seed it must reproduce the result exactly.
        second = session.estimate(
            survival_query, epsilon=EPSILON, delta=DELTA, rng=random.Random(61)
        )
        assert first == second

    def test_structural_caches_are_reused(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        assert session.decomposition() is session.decomposition()
        first = session.witnesses(survival_query)
        assert session.witnesses(survival_query) is first
        session.estimate(survival_query, epsilon=EPSILON, delta=DELTA)
        assert session.witnesses(survival_query) is first

    def test_witness_entailment_agrees_with_query_entails(self, fig2):
        database, constraints = fig2
        query = cq((x,), (atom("R", x, y),))
        session = EstimationSession(database, constraints, M_UR)
        sampler = session.sampler(random.Random(67))
        candidates = sorted(query.answers(database), key=repr)
        for _ in range(50):
            repair = sampler.sample()
            for candidate in candidates:
                witnesses = session.witnesses(query, candidate)
                assert any(
                    witness <= repair.facts for witness in witnesses
                ) == query.entails(repair, candidate)

    def test_witnesses_are_inclusion_minimal_subsets_of_d(self, fig2):
        database, constraints = fig2
        query = boolean_cq(atom("R", x, y))
        session = EstimationSession(database, constraints, M_UR)
        witnesses = session.witnesses(query)
        for witness in witnesses:
            assert witness <= database.facts
            assert not any(
                other < witness for other in witnesses if other is not witness
            )


class TestScopeAndZeros:
    def test_possibility_zero_spends_no_pool_samples(self, fig2):
        database, constraints = fig2
        impossible = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(71))
        result = session.estimate_pooled(pool, impossible)
        assert result.certified_zero and result.samples_used == 0
        assert len(pool) == 0  # certified without drawing a single sample

    def test_unavailable_combinations_raise_like_per_call(self, running_example):
        database, constraints, _ = running_example  # two FDs, not primary keys
        session = EstimationSession(database, constraints, M_UR)
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        with pytest.raises(FPRASUnavailable):
            session.estimate(query)
        with pytest.raises(FPRASUnavailable):
            session.pool(random.Random(0))
        with pytest.raises(FPRASUnavailable):
            session.positivity_bound(query)

    def test_unknown_method_rejected(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(ValueError):
            session.estimate(survival_query, method="bogus")

    def test_fixed_budget_keeps_arity_error(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(QueryError):
            session.fixed_budget(survival_query, ("extra",), samples=10)


class TestSamplePool:
    def test_pool_grows_lazily_and_replays(self, fig2):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(73))
        assert len(pool) == 0
        first = pool.mask_at(0)
        assert len(pool) == pool.batch_size  # one whole batch drawn
        assert pool.mask_at(0) == first  # replay, not redraw
        assert pool.packed_prefix(5).shape == (5, pool.words)
        assert len(pool) == pool.batch_size

    def test_pool_prefix_equals_fresh_sampler_stream(self, fig2):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(79))
        # A fresh plane with the pool's seed re-draws its first batch.
        plane = session.vector_plane(random.Random(79).getrandbits(64))
        outcomes, _ = plane.draw_batch(0, pool.batch_size)
        for position, mask in enumerate(plane.decode_masks(outcomes)[:20]):
            assert pool.mask_at(position) == mask

    def test_standalone_pool_wraps_any_draw(self, fig2):
        from repro.sampling.vectorized import pack_masks, words_for

        database, _ = fig2
        index = InstanceIndex.of(database)

        class PositionPlane:
            # Any object with the planes' draw_batch shape can back a pool.
            def draw_batch(self, batch_index, size):
                masks = [1 << (batch_index % len(index))] * size
                return None, pack_masks(masks, words_for(len(index)))

        pool = SamplePool(index, PositionPlane(), batch_size=1)
        assert pool.mask_at(2) == 1 << 2
        assert pool.mask_at(0) == 1 << 0
        assert len(pool) == 3  # drawn exactly to the position asked for
