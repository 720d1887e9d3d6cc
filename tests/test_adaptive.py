"""Adaptive early-stopping estimation: stopping rules, (ε, δ) envelope, scheduling.

The adaptive layer's contract mirrors the fixed-budget path: with
probability ``1 − δ`` the estimate has relative error at most ``ε``
whenever the true probability is zero or at least the positivity bound.
These tests pin the envelope against exact values on seeded runs, check
the stopping rules fire where they should, and verify that a group's
requests over one shared pool are indistinguishable from per-request
sequential runs.
"""

import random

import pytest

from repro.approx.adaptive import (
    AdaptiveResult,
    SequentialEstimator,
    adaptive_estimate,
    empirical_bernstein_radius,
    hoeffding_radius,
)
from repro.approx.montecarlo import chernoff_sample_size
from repro.chains.generators import M_UR, M_UR1, M_US
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import BatchRequest, EstimationSession, batch_estimate
from repro.engine.batch import run_group
from repro.exact import rrfreq
from repro.workloads import database_with_inconsistency, figure2_database

x, y = var("x"), var("y")

EPSILON, DELTA = 0.4, 0.2  # cheap but meaningful for seeded envelope tests


class TestRadii:
    def test_radii_shrink_with_n(self):
        eb = [empirical_bernstein_radius(n, 0.25, 0.05) for n in (10, 100, 1000)]
        hoef = [hoeffding_radius(n, 0.05) for n in (10, 100, 1000)]
        assert eb == sorted(eb, reverse=True)
        assert hoef == sorted(hoef, reverse=True)

    def test_zero_samples_infinite_radius(self):
        assert empirical_bernstein_radius(0, 0.25, 0.05) == float("inf")
        assert hoeffding_radius(0, 0.05) == float("inf")

    def test_eb_beats_hoeffding_at_low_variance(self):
        # Variance 0.01 (p near 0 or 1): the variance-adaptive bound wins.
        assert empirical_bernstein_radius(5000, 0.01, 0.05) < hoeffding_radius(
            5000, 0.05
        )


class TestSequentialEstimator:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SequentialEstimator(0.0, 0.1)
        with pytest.raises(ValueError):
            SequentialEstimator(1.5, 0.1)
        with pytest.raises(ValueError):
            SequentialEstimator(0.2, 0.0)
        with pytest.raises(ValueError):
            SequentialEstimator(0.2, 0.1, p_lower=0.0)
        with pytest.raises(ValueError):
            SequentialEstimator(0.2, 0.1, max_samples=0)
        with pytest.raises(ValueError):
            SequentialEstimator(0.2, 0.1).offer(1.5)

    def test_result_before_stop_and_offer_after_stop_raise(self):
        estimator = SequentialEstimator(0.5, 0.2, max_samples=3)
        with pytest.raises(RuntimeError):
            estimator.result()
        while not estimator.offer(0.0):
            pass
        with pytest.raises(RuntimeError):
            estimator.offer(0.0)

    def test_zero_certificate_fires_before_chernoff_cap(self):
        estimator = SequentialEstimator(0.2, 0.1, p_lower=0.05)
        count = 0
        while not estimator.offer(0.0):
            count += 1
        result = estimator.result()
        assert result.certified_zero and result.estimate == 0.0
        assert result.method == "adaptive-zero"
        # The zero certificate needs ~ln(4/δ)/p_lower samples, far fewer
        # than the ε-dependent Chernoff cap.
        assert result.samples_used < chernoff_sample_size(0.2, 0.1 / 4, 0.05)

    def test_constant_one_stream_stops_fast(self):
        result = adaptive_estimate(lambda: 1.0, 0.2, 0.1, p_lower=0.01)
        assert result.estimate == 1.0
        assert result.method == "adaptive-eb"
        # Zero empirical variance: only the 1/n Bernstein term must clear
        # ε/(1+ε), so stopping is logarithmic in 1/δ_n — tens of samples.
        assert result.samples_used < 500
        assert 1.0 in result.interval

    def test_user_truncation_flagged(self):
        estimator = SequentialEstimator(0.2, 0.1, max_samples=10)
        stream = random.Random(5)
        while not estimator.offer(float(stream.random() < 0.5)):
            pass
        result = estimator.result()
        assert result.samples_used == 10
        assert result.method == "adaptive-truncated"

    def test_truncated_all_zero_run_keeps_an_honest_interval(self):
        # Two zero draws are no evidence for μ = 0 when the zero
        # certificate needs nine — the interval must stay wide, and the
        # row must not claim a certified zero.
        estimator = SequentialEstimator(0.2, 0.05, p_lower=0.5, max_samples=2)
        while not estimator.offer(0.0):
            pass
        result = estimator.result()
        assert result.method == "adaptive-truncated"
        assert not result.certified_zero
        assert result.interval.upper > 0.3  # no zero-width certainty claim

    def test_zero_certificate_interval_is_pointlike(self):
        estimator = SequentialEstimator(0.2, 0.05, p_lower=0.5)
        while not estimator.offer(0.0):
            pass
        result = estimator.result()
        assert result.method == "adaptive-zero"
        assert result.interval.lower == result.interval.upper == 0.0

    def test_unbounded_run_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            adaptive_estimate(lambda: 0.0, 0.2, 0.1)

    def test_interval_always_contains_estimate(self):
        stream = random.Random(17)
        result = adaptive_estimate(
            lambda: float(stream.random() < 0.3), 0.3, 0.1, p_lower=0.05
        )
        assert result.estimate in result.interval
        assert 0.0 <= result.interval.lower <= result.interval.upper <= 1.0


class TestEnvelope:
    """Pinned-seed (ε, δ) envelope against exact values — the parity suite."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 101])
    @pytest.mark.parametrize("generator", [M_UR, M_US, M_UR1])
    def test_fig2_survival_within_epsilon(self, seed, generator):
        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"))
        exact = float(rrfreq(database, constraints, query))
        session = EstimationSession(database, constraints, generator)
        result = session.estimate_adaptive(
            query, epsilon=EPSILON, delta=DELTA, rng=random.Random(seed)
        )
        # rrfreq is exact only for M_ur, but all three uniform generators
        # give a1/b1 a probability within the wide test ε of it on fig2.
        assert abs(result.estimate - exact) <= EPSILON * max(exact, result.estimate)
        assert result.samples_used > 0

    @pytest.mark.parametrize("seed", [3, 13, 31])
    def test_sweep_instance_within_epsilon_and_interval_covers(self, seed):
        database, constraints = database_with_inconsistency(
            30, 0.5, block_size=3, rng=random.Random(7)
        )
        target = next(
            block.sorted_facts()[0]
            for block in EstimationSession(database, constraints, M_UR)
            .decomposition()
            .conflicting_blocks()
        )
        query = boolean_cq(atom("R", *target.values))
        exact = float(rrfreq(database, constraints, query))
        session = EstimationSession(database, constraints, M_UR)
        result = session.estimate_adaptive(
            query, epsilon=EPSILON, delta=DELTA, rng=random.Random(seed)
        )
        assert abs(result.estimate - exact) <= EPSILON * exact
        assert exact in result.interval

    def test_impossible_answer_is_certified_zero_without_samples(self):
        database, constraints = figure2_database()
        impossible = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(5))
        result = session.estimate_adaptive(impossible, pool=pool)
        assert result.certified_zero and result.samples_used == 0
        assert result.method == "possibility-zero"
        assert len(pool) == 0

    def test_adaptive_never_exceeds_chernoff_cap(self):
        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"))
        session = EstimationSession(database, constraints, M_UR)
        cap = chernoff_sample_size(
            EPSILON, DELTA / 4, session.positivity_bound(query)
        )
        result = session.estimate_adaptive(
            query, epsilon=EPSILON, delta=DELTA, rng=random.Random(11)
        )
        assert result.samples_used <= cap


def candidate_requests(database, constraints, query):
    return [
        BatchRequest(
            database, constraints, M_UR, query, answer=c, epsilon=EPSILON, delta=DELTA
        )
        for c in sorted(query.answers(database), key=repr)
    ]


class TestScheduler:
    def test_many_matches_per_request_runs(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = candidate_requests(database, constraints, query)
        session = EstimationSession(database, constraints, M_UR)
        batched = [
            row.result
            for row in run_group(
                session, session.pool(random.Random(13)), requests, "adaptive"
            )
        ]
        # Each request alone, on a fresh pool seeded like the shared one.
        singles = [
            session.estimate_adaptive(
                query,
                r.answer,
                epsilon=EPSILON,
                delta=DELTA,
                pool=session.pool(random.Random(13)),
            )
            for r in requests
        ]
        assert batched == singles
        assert all(isinstance(r, AdaptiveResult) for r in batched)

    def test_pool_length_is_the_slowest_stop_not_the_sum(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = candidate_requests(database, constraints, query)
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(29))
        results = [
            row.result for row in run_group(session, pool, requests, "adaptive")
        ]
        # Samples are drawn on demand and every request reads from
        # position zero: the pool ends up exactly as long as the slowest
        # request's stopping time.
        assert len(pool) == max(r.samples_used for r in results)
        assert len(pool) < sum(r.samples_used for r in results)

    def test_unknown_mode_rejected(self):
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(ValueError, match="unknown mode"):
            run_group(session, session.pool(), [], "bogus")


class TestBatchAdaptiveMode:
    def request_rows(self):
        database, constraints = figure2_database()
        return candidate_requests(database, constraints, cq((x,), (atom("R", x, y),)))

    def test_batch_adaptive_matches_session_runs(self):
        requests = self.request_rows()
        results = batch_estimate(requests, seed=37, mode="adaptive")
        assert all(r.ok for r in results)
        first = requests[0]
        session = EstimationSession(first.database, first.constraints, first.generator)
        from repro.engine.batch import group_seed_for

        # The planner builds its pool via pool_for_seed (the vector plane
        # for M_ur); mirror it exactly, one estimate_adaptive per request.
        pool = session.pool_for_seed(
            group_seed_for(37, first.database, first.constraints, first.generator)
        )
        expected = [
            session.estimate_adaptive(
                r.query,
                r.answer,
                epsilon=r.epsilon,
                delta=r.delta,
                pool=pool,
                max_samples=r.max_samples,
            )
            for r in requests
        ]
        assert [r.result for r in results] == expected

    def test_batch_adaptive_uses_fewer_samples_than_fixed(self):
        requests = self.request_rows()
        adaptive = batch_estimate(requests, seed=41, mode="adaptive")
        fixed = batch_estimate(requests, seed=41, mode="fixed")
        assert sum(r.result.samples_used for r in adaptive) < sum(
            r.result.samples_used for r in fixed
        )

    def test_bad_positivity_bound_reported_per_request_not_raised(self, monkeypatch):
        # A positivity bound can underflow to 0.0 on extreme instances;
        # only the affected request may fail, not its whole group.
        requests = self.request_rows()
        original = EstimationSession.positivity_bound

        def flaky(self, query):
            bound = original(self, query)
            if getattr(flaky, "poisoned", True):
                flaky.poisoned = False
                raise ValueError("p_lower must lie in (0, 1]")
            return bound

        flaky.poisoned = True
        monkeypatch.setattr(EstimationSession, "positivity_bound", flaky)
        results = batch_estimate(requests, seed=47, mode="adaptive")
        assert not results[0].ok and "p_lower" in results[0].error
        assert all(r.ok for r in results[1:])

    def test_bad_epsilon_reported_per_request_not_raised(self):
        good = self.request_rows()[0]
        bad = BatchRequest(
            good.database,
            good.constraints,
            good.generator,
            good.query,
            answer=good.answer,
            epsilon=2.0,  # adaptive mode requires epsilon < 1
            delta=DELTA,
        )
        results = batch_estimate([bad, good], seed=43, mode="adaptive")
        assert not results[0].ok and "epsilon" in results[0].error
        assert results[1].ok

    def test_unknown_batch_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            batch_estimate([], mode="bogus")

    def test_impossible_answer_resolves_like_fixed_mode_even_with_bad_epsilon(self):
        # The possibility zero-test short-circuits before estimator
        # parameters are ever validated — in both modes, identically.
        database, constraints = figure2_database()
        impossible = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        request = BatchRequest(
            database, constraints, M_UR, impossible, epsilon=1.0, delta=DELTA
        )
        for mode in ("fixed", "adaptive"):
            (result,) = batch_estimate([request], seed=53, mode=mode)
            assert result.ok, f"mode={mode}: {result.error}"
            assert result.result.certified_zero
            assert result.result.samples_used == 0


class TestSmallDeltaAndDegenerateStreams:
    """Regression pins for δ→0 arithmetic and constant p ∈ {0, 1} streams.

    Historically ``radius()`` evaluated ``log(3 / δ_n)`` with
    ``δ_n = δ/2 / (n(n+1))`` computed *as a float*: for subnormal δ the
    quotient underflows to exactly 0.0 (a ``ZeroDivisionError``), and the
    constructor's ``ceil(log(4/δ) / p_lower)`` overflowed once ``4/δ``
    left float range.  Both now assemble the logarithm additively, so the
    δ-budget split stays exact arithmetic all the way down.
    """

    SUBNORMAL_DELTA = 1e-320

    def test_subnormal_delta_constructs_and_has_finite_radii(self):
        import math

        estimator = SequentialEstimator(0.2, self.SUBNORMAL_DELTA, p_lower=0.5)
        # The historical formulation died here: δ_seq/(n(n+1)) hits an
        # exact float zero near n=31 for δ=1e-320.
        for _ in range(64):
            if estimator.offer(1.0):
                break
            assert math.isfinite(estimator.radius())

    def test_subnormal_delta_radius_helpers_stay_finite(self):
        import math

        from repro.approx.adaptive import confidence_sequence_radius

        assert math.isfinite(
            empirical_bernstein_radius(100, 0.25, self.SUBNORMAL_DELTA)
        )
        assert math.isfinite(hoeffding_radius(100, self.SUBNORMAL_DELTA))
        assert math.isfinite(
            confidence_sequence_radius(31, 0.25, self.SUBNORMAL_DELTA / 2)
        )

    def test_subnormal_delta_sample_sizes_are_finite_integers(self):
        from repro.approx.montecarlo import (
            hoeffding_sample_size,
            zero_detection_sample_size,
        )

        for budget in (
            chernoff_sample_size(0.5, self.SUBNORMAL_DELTA, 0.5),
            zero_detection_sample_size(self.SUBNORMAL_DELTA, 0.5),
            hoeffding_sample_size(0.5, self.SUBNORMAL_DELTA),
        ):
            assert isinstance(budget, int) and budget > 0

    def test_smallest_subnormal_still_fails_loudly(self):
        # δ = 5e-324 is the one value the split cannot survive: δ/4
        # rounds to exactly 0.0 before any logarithm is taken, and the
        # Chernoff cap rejects a zero δ outright.  An explicit ValueError
        # (not an overflow or a hang) is the pinned behavior.
        with pytest.raises(ValueError):
            SequentialEstimator(0.2, 5e-324, p_lower=0.5)

    def test_delta_split_arithmetic_pinned_exactly(self):
        import math

        epsilon, delta, p_lower = 0.3, 0.05, 0.1
        estimator = SequentialEstimator(epsilon, delta, p_lower=p_lower)
        # δ = δ/2 (sequence) + δ/4 (zero certificate) + δ/4 (Chernoff cap).
        assert estimator._delta_sequence == delta / 2.0
        assert estimator._zero_cap == math.ceil(
            (math.log(4.0) - math.log(delta)) / p_lower
        )
        assert estimator._chernoff_cap == chernoff_sample_size(
            epsilon, delta / 4.0, p_lower
        )
        assert estimator.sample_cap == estimator._chernoff_cap

    def test_radius_is_the_shared_confidence_sequence_radius(self):
        from repro.approx.adaptive import confidence_sequence_radius

        estimator = SequentialEstimator(0.3, 0.1, p_lower=0.05)
        rng = random.Random(7)
        for _ in range(25):
            if estimator.offer(1.0 if rng.random() < 0.4 else 0.0):
                break
            assert estimator.radius() == confidence_sequence_radius(
                estimator.samples_seen,
                estimator.variance(),
                0.1 / 2.0,
            )

    def test_all_zero_stream_certifies_at_the_exact_zero_cap(self):
        import math

        delta, p_lower = 0.05, 0.2
        estimator = SequentialEstimator(0.3, delta, p_lower=p_lower)
        expected_cap = math.ceil((math.log(4.0) - math.log(delta)) / p_lower)
        count = 0
        while not estimator.offer(0.0):
            count += 1
        result = estimator.result()
        assert result.method == "adaptive-zero"
        assert result.certified_zero
        assert result.estimate == 0.0
        assert result.samples_used == expected_cap == count + 1
        # The certificate is a point interval at zero, not a radius.
        assert result.interval.lower == result.interval.upper == 0.0

    def test_all_one_stream_stops_early_with_exact_estimate(self):
        result = adaptive_estimate(lambda: 1.0, 0.3, 0.1, p_lower=0.5)
        assert result.method == "adaptive-eb"
        assert result.estimate == 1.0
        assert not result.certified_zero
        assert result.samples_used < chernoff_sample_size(0.3, 0.1 / 4.0, 0.5)
        assert 1.0 <= result.interval.upper <= 1.0 + 1e-12

    def test_subnormal_delta_zero_stream_still_terminates(self):
        # The zero cap scales like ln(4/δ)/p_lower ≈ 1477 draws for
        # δ=1e-320 — enormous confidence, still finite and reachable.
        import math

        result = adaptive_estimate(
            lambda: 0.0, 0.2, self.SUBNORMAL_DELTA, p_lower=0.5
        )
        assert result.method == "adaptive-zero"
        assert result.certified_zero
        assert result.samples_used == math.ceil(
            (math.log(4.0) - math.log(self.SUBNORMAL_DELTA)) / 0.5
        )
