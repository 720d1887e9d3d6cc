"""End-to-end FPRAS tests: estimates near exact values, scope enforcement."""

import random
from fractions import Fraction

import pytest

from repro.approx.fpras import FPRASUnavailable, fixed_budget_estimate, fpras_ocqa
from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.reductions.pathological import pathological_instance
from repro.workloads import fd_star_database, figure2_database, multikey_database


@pytest.fixture
def fig2_query():
    return boolean_cq(atom("R", "a1", "b1"))


class TestPrimaryKeyFPRAS:
    @pytest.mark.parametrize("generator", [M_UR, M_US, M_UR1, M_US1])
    def test_estimate_close_to_exact(self, generator, fig2_query):
        database, constraints = figure2_database()
        exact = float(exact_ocqa(database, constraints, generator, fig2_query))
        result = fpras_ocqa(
            database,
            constraints,
            generator,
            fig2_query,
            epsilon=0.15,
            delta=0.05,
            rng=random.Random(7),
        )
        assert result.estimate == pytest.approx(exact, rel=0.15)

    def test_zero_probability_certified(self, fig2_query):
        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        # Both facts share a block: no repair keeps them together.
        result = fpras_ocqa(
            database,
            constraints,
            M_UR,
            query,
            epsilon=0.3,
            delta=0.1,
            rng=random.Random(3),
        )
        assert result.estimate == 0.0
        assert result.certified_zero


class TestUniformOperationsFPRAS:
    def test_uo_primary_keys(self, fig2_query):
        database, constraints = figure2_database()
        exact = float(exact_ocqa(database, constraints, M_UO, fig2_query))
        result = fpras_ocqa(
            database,
            constraints,
            M_UO,
            fig2_query,
            epsilon=0.15,
            delta=0.05,
            rng=random.Random(11),
        )
        assert result.estimate == pytest.approx(exact, rel=0.15)

    def test_uo_arbitrary_keys(self, rng):
        instance = multikey_database(5, max_degree=3, rng=random.Random(5))
        database, constraints = instance.database, instance.constraints
        target = database.sorted_facts()[0]
        query = boolean_cq(atom(target.relation, *target.values))
        exact = float(exact_ocqa(database, constraints, M_UO, query))
        result = fpras_ocqa(
            database,
            constraints,
            M_UO,
            query,
            epsilon=0.2,
            delta=0.05,
            method="dklr",
            rng=random.Random(13),
        )
        assert result.estimate == pytest.approx(exact, rel=0.2)

    def test_uo1_arbitrary_fds(self):
        database, constraints = fd_star_database(n_stars=1, spokes_per_star=3)
        query = boolean_cq(atom("R", "s0", 0, 0))
        exact = float(
            exact_ocqa(database, constraints, M_UO1, query)
        )
        result = fpras_ocqa(
            database,
            constraints,
            M_UO1,
            query,
            epsilon=0.2,
            delta=0.05,
            method="dklr",
            rng=random.Random(17),
        )
        assert result.estimate == pytest.approx(exact, rel=0.2)


class TestScopeEnforcement:
    def test_mur_rejects_fds(self, running_example):
        database, constraints, _ = running_example
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        with pytest.raises(FPRASUnavailable):
            fpras_ocqa(database, constraints, M_UR, query)

    def test_mus_rejects_fds(self, running_example):
        database, constraints, _ = running_example
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        with pytest.raises(FPRASUnavailable):
            fpras_ocqa(database, constraints, M_US, query)

    def test_mur_rejects_multiple_keys_per_relation(self, rng):
        instance = multikey_database(4, max_degree=2, rng=rng)
        query = boolean_cq(
            atom("R", *instance.database.sorted_facts()[0].values)
        )
        with pytest.raises(FPRASUnavailable):
            fpras_ocqa(instance.database, instance.constraints, M_UR, query)

    def test_uo_rejects_nonkey_fds(self, running_example):
        database, constraints, _ = running_example
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        with pytest.raises(FPRASUnavailable):
            fpras_ocqa(database, constraints, M_UO, query)

    def test_uo1_accepts_nonkey_fds(self, running_example):
        database, constraints, _ = running_example
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        result = fpras_ocqa(
            database,
            constraints,
            M_UO1,
            query,
            epsilon=0.3,
            delta=0.1,
            method="dklr",
            rng=random.Random(23),
        )
        exact = float(exact_ocqa(database, constraints, M_UO1, query))
        assert result.estimate == pytest.approx(exact, rel=0.3)

    def test_unknown_method_rejected(self, fig2_query):
        database, constraints = figure2_database()
        with pytest.raises(ValueError):
            fpras_ocqa(database, constraints, M_UR, fig2_query, method="bogus")


class TestPathologicalFailure:
    def test_truncated_monte_carlo_misses_event(self):
        """Prop D.6 in action: the walk virtually never sees the centre."""
        instance = pathological_instance(14)
        result = fpras_ocqa(
            instance.database,
            instance.constraints,
            M_UO1,  # singleton walker would work; use plain walker below
            instance.query,
            epsilon=0.5,
            delta=0.2,
            method="dklr",
            max_samples=300,
            rng=random.Random(29),
        )
        # Under M_uo,1 the probability is decent; contrast with plain M_uo:
        from repro.sampling.operations_sampler import UniformOperationsSampler

        walker = UniformOperationsSampler(
            instance.database, instance.constraints, rng=random.Random(31)
        )
        hits = sum(
            1
            for _ in range(300)
            if instance.query.entails(walker.sample())
        )
        assert hits == 0  # exact probability is below 2^-13

    def test_fixed_budget_estimator(self):
        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"))
        result = fixed_budget_estimate(
            database,
            constraints,
            M_UR,
            query,
            samples=4000,
            rng=random.Random(37),
        )
        exact = float(exact_ocqa(database, constraints, M_UR, query))
        assert result.estimate == pytest.approx(exact, abs=0.05)
        assert result.samples_used == 4000


class TestFixedBudget:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_fixed_budget_rejects_non_positive_budgets(self, samples):
        # A zero budget divided by zero and a negative one certified a
        # false zero; every entry point now refuses both.
        from repro.engine import EstimationSession

        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"))
        session = EstimationSession(database, constraints, M_UR)
        calls = [
            lambda: fixed_budget_estimate(
                database, constraints, M_UR, query, samples=samples
            ),
            lambda: session.fixed_budget(query, samples=samples),
            lambda: session.fixed_budget_pooled(
                session.pool_for_seed(3), query, samples=samples
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="samples must be positive"):
                call()
