"""Tests that the paper's positivity bounds hold against exact values."""

import itertools
import random
from fractions import Fraction

import pytest

from repro.approx.bounds import (
    pathological_upper_bound,
    rrfreq_lower_bound,
    singleton_frequency_lower_bound,
    srfreq_lower_bound,
    uo_keys_local_lower_bound,
    uo_keys_lower_bound,
    uo_singleton_fd_lower_bound,
)
from repro.approx.fpras import FPRASUnavailable
from repro.chains.generators import M_UO, M_UO1, M_UR, MarkovChainGenerator
from repro.core import Database
from repro.core.graphs import complete_graph, cycle_graph, path_graph, star_graph
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import LAWS, EstimationSession
from repro.exact import exact_ocqa, rrfreq, rrfreq1, srfreq, srfreq1
from repro.exact.state_space import StateSpaceEngine
from repro.reductions.pathological import exact_centre_probability
from repro.reductions.vizing import independent_set_database
from repro.workloads import block_database, fd_star_database, multikey_database


def block_queries(database):
    """A few single-atom Boolean queries over facts of the database."""
    return [boolean_cq(atom(f.relation, *f.values)) for f in database.sorted_facts()]


class TestFrequencyBounds:
    def test_lemma_5_3_on_blocks(self, figure2):
        database, constraints = figure2
        for query in block_queries(database):
            value = rrfreq(database, constraints, query)
            bound = rrfreq_lower_bound(database, query)
            if value > 0:
                assert value >= bound

    def test_lemma_6_3_on_blocks(self, figure2):
        database, constraints = figure2
        for query in block_queries(database):
            value = srfreq(database, constraints, query)
            bound = srfreq_lower_bound(database, query)
            if value > 0:
                assert value >= bound

    def test_example_b3_bound_value(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"))
        # Example B.3: 1/(2|D|)^{|Q|} = 1/12 bounds rrfreq = 1/4.
        assert rrfreq_lower_bound(database, query) == Fraction(1, 12)
        assert rrfreq(database, constraints, query) == Fraction(1, 4)

    def test_lemma_e3_e10_on_blocks(self, figure2):
        database, constraints = figure2
        for query in block_queries(database):
            bound = singleton_frequency_lower_bound(database, query)
            for value in (
                rrfreq1(database, constraints, query),
                srfreq1(database, constraints, query),
            ):
                if value > 0:
                    assert value >= bound

    def test_singleton_bound_is_weaker_requirement(self, figure2):
        database, _ = figure2
        query = boolean_cq(atom("R", "a1", "b1"))
        assert singleton_frequency_lower_bound(database, query) > rrfreq_lower_bound(
            database, query
        )


class TestUniformOperationsBounds:
    def test_lemma_d8_on_fd_stars(self):
        database, constraints = fd_star_database(n_stars=2, spokes_per_star=2)
        for query in block_queries(database):
            value = exact_ocqa(database, constraints, M_UO1, query)
            bound = uo_singleton_fd_lower_bound(database, query)
            if value > 0:
                assert value >= bound

    def test_prop_7_3_on_multikey_instance(self, rng):
        instance = multikey_database(5, max_degree=3, rng=rng)
        database, constraints = instance.database, instance.constraints
        query = block_queries(database)[0]
        value = exact_ocqa(database, constraints, M_UO, query)
        bound = uo_keys_lower_bound(database, constraints, query)
        assert 0 < bound < Fraction(1, 10**6)  # polynomial but tiny
        if value > 0:
            assert value >= bound

    def test_pathological_upper_bound_vs_closed_form(self):
        for n in range(1, 12):
            assert exact_centre_probability(n) <= pathological_upper_bound(n)
            assert exact_centre_probability(n) > 0

    def test_pathological_bound_requires_positive_n(self):
        with pytest.raises(ValueError):
            pathological_upper_bound(0)


class _Unknown(MarkovChainGenerator):
    """A generator no :data:`LAWS` entry names."""

    @property
    def base_name(self) -> str:
        return "M_xx"

    def _annotate(self, root, constraints) -> None:
        raise NotImplementedError


class TestBoundDispatch:
    """The law table's bounds, and its scope checks where no bound holds."""

    def test_primary_key_dispatch(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"))
        assert LAWS["M_ur"].bound(database, constraints, query) == Fraction(1, 12)
        assert LAWS["M_us"].bound(database, constraints, query) == Fraction(1, 12)
        assert LAWS["M_ur,1"].bound(database, constraints, query) == Fraction(1, 6)
        assert LAWS["M_us,1"].bound(database, constraints, query) == Fraction(1, 6)

    def test_uo_dispatch(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"))
        assert LAWS["M_uo"].bound(database, constraints, query) > 0
        assert LAWS["M_uo,1"].bound(database, constraints, query) > 0

    def test_unsupported_combinations_raise(self, running_example):
        database, constraints, _ = running_example  # non-key FDs
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        with pytest.raises(FPRASUnavailable):
            EstimationSession(database, constraints, M_UR).positivity_bound(query)
        with pytest.raises(FPRASUnavailable):
            EstimationSession(database, constraints, M_UO).positivity_bound(query)
        with pytest.raises(FPRASUnavailable, match="no FPRAS dispatch"):
            EstimationSession(database, constraints, _Unknown()).ensure_supported()
        # M_uo,1 works for any FDs (Theorem 7.5).
        session = EstimationSession(database, constraints, M_UO1)
        assert session.ensure_supported() is LAWS["M_uo,1"]
        assert session.positivity_bound(query) > 0


def _key_instances():
    """Small arbitrary-keys instances (Prop 5.5's encoding of a graph)."""
    graphs = {
        "star3": star_graph(3),
        "star4": star_graph(4),
        "path5": path_graph(5),
        "cycle6": cycle_graph(6),
        "K4": complete_graph(4),
    }
    instances = {name: independent_set_database(g) for name, g in graphs.items()}
    for seed in (1, 2):
        instances[f"multikey7-{seed}"] = multikey_database(7, 3, random.Random(seed))
    return instances


class TestSessionPositivityFloor:
    """The floor plain ``M_uo`` sizes samples with must be a lower bound.

    Beyond primary keys the ``rrfreq`` floor ``1/(2|D|)^|Q|`` is not one
    (a star's centre survives with ``Π k/(2k+1)``, 0.0571 against 0.125
    on star(3)); :func:`uo_keys_local_lower_bound` is, on every
    single-fact answer and every pairwise-consistent two-fact witness.
    """

    @pytest.mark.parametrize("name", sorted(_key_instances()))
    def test_floor_is_below_every_exact_probability(self, name):
        instance = _key_instances()[name]
        database, constraints = instance.database, instance.constraints
        assert constraints.all_keys() and not constraints.is_primary_keys()
        distribution = StateSpaceEngine(database, constraints).repair_distribution(M_UO)

        def survival(witness):
            return float(
                sum(p for repair, p in distribution.items() if witness <= repair.facts)
            )

        arity = len(next(iter(database)).values)
        left = [var(f"u{i}") for i in range(arity)]
        right = [var(f"v{i}") for i in range(arity)]
        one = cq(tuple(left), (atom("R", *left),))
        two = cq(tuple(left + right), (atom("R", *left), atom("R", *right)))
        session = EstimationSession(database, constraints, M_UO)
        facts = database.sorted_facts()
        floor = session.positivity_bound(one)
        for fact in facts:
            assert 0 < floor <= survival(frozenset([fact])), fact
        floor = session.positivity_bound(two)
        consistent = [
            frozenset(pair)
            for pair in itertools.combinations(facts, 2)
            if constraints.satisfied_by(Database(pair, schema=database.schema))
        ]
        assert consistent or name == "K4"  # in K4 every pair conflicts
        for pair in consistent:
            assert 0 < floor <= survival(pair), sorted(map(str, pair))

    def test_local_bound_is_exact_on_stars(self):
        for n in (3, 4):
            instance = independent_set_database(star_graph(n))
            database, constraints = instance.database, instance.constraints
            centre = instance.node_to_fact[0]
            exact = StateSpaceEngine(database, constraints).answer_probability(
                M_UO, lambda repair: centre in repair
            )
            assert uo_keys_local_lower_bound(1, n) == exact
        assert uo_keys_local_lower_bound(1, 0) == 1  # no conflicts: every fact stays
