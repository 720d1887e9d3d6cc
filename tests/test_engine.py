"""Estimation-session tests: seeded parity with the per-call API, caching.

The engine's central promise is that batching is *purely* an optimization:
under the same RNG seed, a session — with or without a shared sample pool —
produces bit-for-bit the results of the per-call FPRAS wrappers.
"""

import math
import random

import pytest

from repro.approx.adaptive import SequentialEstimator
from repro.approx.bounds import float_at_most
from repro.approx.fpras import (
    AUTO_FIXED_BUDGET,
    FPRASUnavailable,
    fixed_budget_estimate,
    fpras_ocqa,
)
from repro.approx.montecarlo import chernoff_sample_size
from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core.facts import fact
from repro.core.interning import InstanceIndex
from repro.counting.survival import ground_survival_mur, ground_survival_mus
from repro.core.queries import QueryError, atom, boolean_cq, cq, var
from repro.engine import MODES, BatchRequest, EstimationSession, SamplePool, batch_estimate
from repro.engine.batch import run_group
from repro.engine.session import METHODS
from repro.sampling import vectorized
from repro.workloads import figure2_database

x, y = var("x"), var("y")

#: Cheap-but-meaningful accuracy settings for the parity tests (the values
#: themselves are irrelevant: both sides must agree exactly).
EPSILON, DELTA = 0.5, 0.2

ALL_SIX = [M_UR, M_US, M_UO, M_UR1, M_US1, M_UO1]

#: Exact ground survival per generator on primary keys (plain ``M_uo`` has
#: no closed form); on keys the singleton generators share ``M_ur,1``'s.
SURVIVAL = {
    M_UR: ground_survival_mur,
    M_US: ground_survival_mus,
    M_UR1: lambda *args: ground_survival_mur(*args, singleton_only=True),
    M_US1: lambda *args: ground_survival_mur(*args, singleton_only=True),
    M_UO1: lambda *args: ground_survival_mur(*args, singleton_only=True),
}


def single_fact_bound(session, query, generator, target):
    """The ``p_lower`` a plan for ``query``, whose one witness is the fact
    ``target``, must read.

    The answer's probability is ``target``'s exact survival, so the bound
    is that survival, rounded down, whenever the law has a formula, and
    the paper's floor otherwise.
    """
    floor = session.positivity_bound(query)
    formula = SURVIVAL.get(generator)
    if formula is None:
        return floor
    exact = formula(session.database, session.constraints, {target})
    return max(floor, float_at_most(exact))


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

    @pytest.mark.parametrize("generator", [M_UR, M_US, M_UO], ids=lambda g: g.name)
    def test_one_enumeration_and_one_packing_per_answer(
        self, fig2, generator, monkeypatch
    ):
        calls = {"enumerate": 0, "pack": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            EstimationSession,
            "_compute_witnesses",
            counted("enumerate", EstimationSession._compute_witnesses),
        )
        monkeypatch.setattr(
            vectorized, "pack_witnesses", counted("pack", vectorized.pack_witnesses)
        )
        database, constraints = fig2
        query = cq((x,), (atom("R", x, y),))
        candidates = sorted(query.answers(database), key=repr)
        session = EstimationSession(database, constraints, generator)
        pool = session.pool_for_seed(5)
        for candidate in candidates:
            for mode in MODES:
                for method in ("auto", "dklr"):
                    for _ in range(2):  # a repeated request for the same answer
                        fields = dict(epsilon=EPSILON, delta=DELTA, method=method, mode=mode)
                        session.plan(query, candidate, **fields)
                        session.estimate_pooled(pool, query, candidate, **fields)
        assert calls == {"enumerate": len(candidates), "pack": len(candidates)}

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

    @pytest.mark.parametrize("generator", [M_UR, M_UO], ids=lambda g: g.name)
    def test_wrong_arity_raises_in_every_entry_point(self, fig2, generator):
        # A wrong-arity answer is a usage error, never a certified zero,
        # whatever the other parameters (epsilon=5 is itself invalid).
        database, constraints = fig2
        query, answer = cq((x,), (atom("R", x, y),)), ("a1", "b1")
        session = EstimationSession(database, constraints, generator)
        with pytest.raises(QueryError, match="arity 2"):
            session.plan(query, answer)
        with pytest.raises(QueryError, match="arity 2"):
            session.estimate(query, answer, rng=random.Random(1))
        with pytest.raises(QueryError, match="arity 2"):
            session.estimate_adaptive(query, answer, rng=random.Random(1))
        with pytest.raises(QueryError, match="arity 2"):
            fpras_ocqa(
                database, constraints, generator, query, answer,
                epsilon=5, rng=random.Random(1),
            )
        request = BatchRequest(database, constraints, generator, query, answer)
        for mode in MODES:
            (row,) = batch_estimate([request], seed=1, mode=mode)
            assert row.result is None and "arity 2" in row.error, row

    def test_fixed_budget_keeps_arity_error(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(QueryError):
            session.fixed_budget(survival_query, ("extra",), samples=10)


class TestRequestPlan:
    """``plan()`` decides a request's run, and its cap, before any draw."""

    IMPOSSIBLE = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))

    @pytest.mark.parametrize("generator", ALL_SIX, ids=lambda g: g.name)
    def test_caps_match_the_primitives_without_drawing(
        self, fig2, survival_query, generator
    ):
        database, constraints = fig2
        session = EstimationSession(database, constraints, generator)
        pool = session.pool_for_seed(7)
        bound = single_fact_bound(
            session, survival_query, generator, fact("R", "a1", "b1")
        )
        budget = chernoff_sample_size(EPSILON, DELTA, bound)
        cases = [({}, ("fixed", budget)), ({"method": "fixed"}, ("fixed", budget))]
        for cap in (None, 3, 10**9):
            sequential = SequentialEstimator(
                EPSILON, DELTA, p_lower=bound, max_samples=cap
            )
            cases += [
                ({"method": "dklr", "max_samples": cap}, ("dklr", cap)),
                (
                    {"mode": "adaptive", "max_samples": cap},
                    ("adaptive", sequential.sample_cap),
                ),
            ]
        for fields, expected in cases:
            plan = session.plan(survival_query, epsilon=EPSILON, delta=DELTA, **fields)
            assert (plan.kind, plan.cap, plan.bound) == (*expected, bound), fields
        for mode in MODES:
            zero = session.plan(self.IMPOSSIBLE, epsilon=EPSILON, delta=DELTA, mode=mode)
            assert (zero.kind, zero.cap) == ("possibility-zero", 0)
        assert len(pool) == 0  # planning draws nothing
        # A fixed run reads its whole cap; a 3-sample dklr run truncates at it.
        for fields in ({"method": "fixed"}, {"method": "dklr", "max_samples": 3}):
            plan = session.plan(survival_query, epsilon=EPSILON, delta=DELTA, **fields)
            result = session.estimate_pooled(
                pool, survival_query, epsilon=EPSILON, delta=DELTA, **fields
            )
            assert result.samples_used == plan.cap

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("generator", ALL_SIX, ids=lambda g: g.name)
    def test_max_samples_bounds_every_plan(self, fig2, survival_query, generator, mode):
        database, constraints = fig2
        session = EstimationSession(database, constraints, generator)
        pool = session.pool_for_seed(7)
        bound = single_fact_bound(
            session, survival_query, generator, fact("R", "a1", "b1")
        )
        budget = chernoff_sample_size(EPSILON, DELTA, bound)
        for method in METHODS:
            for cap in (1, 3, budget - 1, budget, 10**9):
                fields = dict(
                    epsilon=EPSILON, delta=DELTA, method=method, mode=mode, max_samples=cap
                )
                if (mode, method) == ("fixed", "fixed") and budget > cap:
                    message = f"fixed budget {budget} exceeds max_samples={cap}"
                    with pytest.raises(ValueError, match=message):
                        session.plan(survival_query, **fields)
                    continue
                plan = session.plan(survival_query, **fields)
                assert plan.cap <= cap, fields
                result = session.estimate_pooled(pool, survival_query, **fields)
                assert result.samples_used <= plan.cap, fields
        # A cap below the budget: auto picks capped dklr, not fixed.
        plan = session.plan(survival_query, mode=mode, max_samples=3)
        kind = "dklr" if mode == "fixed" else "adaptive"
        assert (plan.kind, plan.budget, plan.cap) == (kind, None, 3)

    def test_dklr_plan_checks_p_lower(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        for p_lower in (5.0, 0.0):
            with pytest.raises(ValueError, match=r"p_lower must lie in \(0, 1\]"):
                session.plan(survival_query, method="dklr", p_lower=p_lower)

    def test_auto_switches_to_dklr_above_the_fixed_budget(self, fig2, survival_query):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        bound = session.positivity_bound(survival_query)
        assert chernoff_sample_size(1e-3, DELTA, bound) > AUTO_FIXED_BUDGET
        plan = session.plan(survival_query, epsilon=1e-3, delta=DELTA)
        assert (plan.kind, plan.budget, plan.cap) == ("dklr", None, None)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"method": "bogus"}, "unknown method 'bogus'"),
            ({"epsilon": 0.0}, "epsilon must lie in"),
            ({"delta": 1.0}, "delta must lie in"),
            ({"max_samples": 0}, "max_samples must be positive"),
            ({"method": "fixed", "max_samples": -5}, "max_samples must be positive"),
            ({"method": "fixed", "p_lower": 5.0}, r"p_lower must lie in \(0, 1\]"),
        ],
    )
    def test_one_parameter_check_in_every_mode(
        self, fig2, survival_query, mode, fields, message
    ):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(ValueError, match=message):
            session.plan(survival_query, mode=mode, **fields)
        # The zero-test runs first: an impossible answer is certified anyway.
        zero = session.plan(self.IMPOSSIBLE, mode=mode, **fields)
        assert (zero.kind, zero.cap) == ("possibility-zero", 0)

    def test_unknown_mode_rejected(self, fig2):
        database, constraints = fig2
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(ValueError, match="unknown mode"):
            session.plan(self.IMPOSSIBLE, mode="bogus")


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
        plane = session.plane(random.Random(79).getrandbits(64))
        outcomes, _ = plane.draw_batch(0, pool.batch_size)
        for position, mask in enumerate(plane.decode_masks(outcomes)[:20]):
            assert pool.mask_at(position) == mask

    def test_standalone_pool_wraps_any_draw(self, fig2):
        from repro.sampling.vectorized import pack_masks, words_for

        database, _ = fig2
        index = InstanceIndex.of(database)

        class PositionPlane:
            # Any object with the planes' draw_batch shape can back a pool.
            batch_size = 1
            words = words_for(len(index))

            def draw_batch(self, batch_index, size):
                masks = [1 << (batch_index % len(index))] * size
                return None, pack_masks(masks, self.words)

        pool = SamplePool(PositionPlane())
        assert pool.mask_at(2) == 1 << 2
        assert pool.mask_at(0) == 1 << 0
        assert len(pool) == 3  # drawn exactly to the position asked for
