"""Tests for the Prop D.6 family (exponentially small M_uo probability)."""

import random
from fractions import Fraction

import pytest

from repro.chains.generators import M_UO
from repro.exact import exact_ocqa
from repro.reductions.pathological import (
    exact_centre_probability,
    pathological_instance,
    proposition_d6_upper_bound,
)
from repro.sampling.operations_sampler import UniformOperationsSampler


class TestConstruction:
    def test_database_shape(self):
        instance = pathological_instance(5)
        assert len(instance.database) == 5
        assert instance.centre in instance.database
        assert not instance.constraints.all_keys()

    def test_star_conflicts(self):
        from repro.core.graphs import conflict_graph

        instance = pathological_instance(5)
        graph = conflict_graph(instance.database, instance.constraints)
        assert graph.degree(instance.centre) == 4
        assert graph.max_degree() == 4
        assert graph.edge_count() == 4

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pathological_instance(0)
        with pytest.raises(ValueError):
            exact_centre_probability(0)


class TestClosedForm:
    def test_base_case(self):
        assert exact_centre_probability(1) == 1

    def test_small_values(self):
        assert exact_centre_probability(2) == Fraction(1, 3)
        assert exact_centre_probability(3) == Fraction(1, 3) * Fraction(2, 5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_state_space_dp(self, n):
        instance = pathological_instance(n)
        assert exact_ocqa(
            instance.database, instance.constraints, M_UO, instance.query
        ) == exact_centre_probability(n)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_proposition_d6_bounds(self, n):
        value = exact_centre_probability(n)
        assert 0 < value <= proposition_d6_upper_bound(n)

    def test_decay_is_exponential(self):
        # The ratio of consecutive probabilities approaches 1/2 from below.
        previous = exact_centre_probability(10)
        current = exact_centre_probability(11)
        assert current / previous == Fraction(10, 21)


class TestMonteCarloFailure:
    def test_sampler_never_hits_for_moderate_n(self):
        """The Prop D.6 point: 2000 walks see the centre ~never at n = 16."""
        instance = pathological_instance(16)
        walker = UniformOperationsSampler(
            instance.database, instance.constraints, rng=random.Random(41)
        )
        hits = sum(
            1 for _ in range(2000) if instance.query.entails(walker.sample())
        )
        assert hits == 0

    def test_singleton_walker_hits_regularly(self):
        """Theorem 7.5's fix: under M_uo,1 the same query is easy."""
        instance = pathological_instance(16)
        walker = UniformOperationsSampler(
            instance.database,
            instance.constraints,
            singleton_only=True,
            rng=random.Random(43),
        )
        hits = sum(
            1 for _ in range(2000) if instance.query.entails(walker.sample())
        )
        # Under singleton operations the centre survives with probability
        # 1/(n u) ... empirically far above zero; just require regular hits.
        assert hits > 50
