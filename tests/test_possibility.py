"""Tests for the polynomial zero-test and witness construction."""

import pytest

from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core.queries import atom, boolean_cq, cq, var
from repro.exact import exact_ocqa
from repro.exact.possibility import (
    answer_is_possible,
    consistent_image_exists,
    witnessing_repair,
)
from repro.workloads import fd_star_database, figure2_database

x, y = var("x"), var("y")


class TestZeroTest:
    def test_possible_single_fact(self, figure2):
        database, constraints = figure2
        assert answer_is_possible(database, constraints, boolean_cq(atom("R", "a1", "b1")))

    def test_impossible_same_block_pair(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        assert not answer_is_possible(database, constraints, query)

    def test_impossible_absent_fact(self, figure2):
        database, constraints = figure2
        assert not answer_is_possible(
            database, constraints, boolean_cq(atom("R", "zz", "zz"))
        )

    def test_possible_cross_block_pair(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a3", "b2"))
        assert answer_is_possible(database, constraints, query)

    def test_answer_binding(self, figure2):
        database, constraints = figure2
        query = cq((x,), (atom("R", "a1", x),))
        assert answer_is_possible(database, constraints, query, ("b1",))
        assert not answer_is_possible(database, constraints, query, ("zz",))

    def test_wrong_arity_answer(self, figure2):
        database, constraints = figure2
        query = cq((x,), (atom("R", "a1", x),))
        assert not answer_is_possible(database, constraints, query, ("b1", "b2"))

    def test_agrees_with_exact_probabilities(self, figure2):
        """P > 0 iff the zero-test says so, for all six generators."""
        database, constraints = figure2
        queries = [
            boolean_cq(atom("R", "a1", "b1")),
            boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2")),
            boolean_cq(atom("R", "a2", "b1")),
            boolean_cq(atom("R", "a1", "b1"), atom("R", "a3", "b1")),
        ]
        for query in queries:
            possible = answer_is_possible(database, constraints, query)
            for generator in (M_UR, M_US, M_UO, M_UR1, M_US1, M_UO1):
                value = exact_ocqa(database, constraints, generator, query)
                assert (value > 0) == possible, (generator.name, str(query))

    def test_on_nonkey_fds(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        # f1 and f3 can coexist; f1 and f2 cannot.
        coexist = boolean_cq(
            atom("R", "a1", "b1", "c1"), atom("R", "a2", "b1", "c2")
        )
        conflict = boolean_cq(
            atom("R", "a1", "b1", "c1"), atom("R", "a1", "b2", "c2")
        )
        assert answer_is_possible(database, constraints, coexist)
        assert not answer_is_possible(database, constraints, conflict)

    def test_consistent_image_requires_image_in_database(self, figure2):
        database, constraints = figure2
        # The query matches nothing in D at all.
        assert not consistent_image_exists(
            database, constraints, boolean_cq(atom("S", x))
        )


class TestWitness:
    def test_witness_is_valid_repair(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a3", "b2"))
        witness = witnessing_repair(database, constraints, query)
        assert witness is not None
        assert witness <= database
        assert constraints.satisfied_by(witness)
        assert query.entails(witness)

    def test_no_witness_when_impossible(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        assert witnessing_repair(database, constraints, query) is None

    def test_witness_on_fd_instance(self):
        database, constraints = fd_star_database(n_stars=2, spokes_per_star=2)
        query = boolean_cq(atom("R", "s0", 0, 0), atom("R", "s1", 0, 0))
        witness = witnessing_repair(database, constraints, query)
        assert witness is not None
        assert query.entails(witness)

    def test_witness_with_answer(self, figure2):
        database, constraints = figure2
        query = cq((x,), (atom("R", x, "b3"),))
        witness = witnessing_repair(database, constraints, query, ("a1",))
        assert witness is not None
        assert query.entails(witness, ("a1",))

    def test_repeated_answer_variable_binds_one_constant(self, figure2):
        database, constraints = figure2
        query = cq((x, x), (atom("R", x, y),))
        assert not answer_is_possible(database, constraints, query, ("a1", "a2"))
        assert witnessing_repair(database, constraints, query, ("a1", "a2")) is None
        witness = witnessing_repair(database, constraints, query, ("a1", "a1"))
        assert witness is not None
        assert query.entails(witness, ("a1", "a1"))

    def test_wrong_arity_has_no_witness(self, figure2):
        database, constraints = figure2
        query = cq((x,), (atom("R", "a1", x),))
        assert witnessing_repair(database, constraints, query, ("b1", "b2")) is None


class TestFPRASIntegration:
    def test_fpras_certifies_zero_without_samples(self, figure2):
        from repro.approx.fpras import fpras_ocqa

        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"), atom("R", "a1", "b2"))
        result = fpras_ocqa(database, constraints, M_UR, query, epsilon=0.2, delta=0.1)
        assert result.estimate == 0.0
        assert result.certified_zero
        assert result.samples_used == 0
        assert result.method == "possibility-zero"
