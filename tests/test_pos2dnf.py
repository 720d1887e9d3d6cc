"""Tests for the ♯Pos2DNF reduction (Appendix E)."""

import pytest

from repro.chains.generators import M_UO1
from repro.exact import exact_ocqa, rrfreq1, srfreq1
from repro.reductions.pos2dnf import (
    Pos2DNF,
    pos2dnf_instance,
    repair_to_assignment,
    sat_count_via_oracle,
)


@pytest.fixture
def simple_formula():
    """(x & y) v (y & z) over three variables."""
    return Pos2DNF((("x", "y"), ("y", "z")))


class TestFormula:
    def test_variables_order(self, simple_formula):
        assert simple_formula.variables() == ("x", "y", "z")

    def test_evaluate(self, simple_formula):
        assert simple_formula.evaluate({"x": 1, "y": 1, "z": 0})
        assert simple_formula.evaluate({"x": 0, "y": 1, "z": 1})
        assert not simple_formula.evaluate({"x": 1, "y": 0, "z": 1})

    def test_count_satisfying(self, simple_formula):
        # Satisfying: y=1 and (x=1 or z=1): 3 of the 8 assignments.
        assert simple_formula.count_satisfying() == 3

    def test_single_clause(self):
        assert Pos2DNF((("a", "b"),)).count_satisfying() == 1

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError):
            Pos2DNF(())

    def test_str(self, simple_formula):
        assert str(simple_formula) == "(x & y) v (y & z)"


class TestInstance:
    def test_database_shape(self, simple_formula):
        instance = pos2dnf_instance(simple_formula)
        assert len(instance.database.facts_of("V")) == 6
        assert len(instance.database.facts_of("C")) == 2
        assert instance.singleton_repair_space_size() == 8
        assert instance.constraints.is_primary_keys()

    def test_reduction_identity_rrfreq1(self, simple_formula):
        instance = pos2dnf_instance(simple_formula)
        ratio = rrfreq1(instance.database, instance.constraints, instance.query)
        assert ratio * instance.singleton_repair_space_size() == 3

    def test_identity_srfreq1(self, simple_formula):
        """Theorem E.8(1): srfreq¹ agrees with rrfreq¹ on D_φ."""
        instance = pos2dnf_instance(simple_formula)
        assert srfreq1(
            instance.database, instance.constraints, instance.query
        ) == rrfreq1(instance.database, instance.constraints, instance.query)

    def test_identity_uo1(self, simple_formula):
        """Theorem E.11: the M_uo,1 probability also matches."""
        instance = pos2dnf_instance(simple_formula)
        assert exact_ocqa(
            instance.database, instance.constraints, M_UO1, instance.query
        ) == rrfreq1(instance.database, instance.constraints, instance.query)


class TestOracleAlgorithm:
    @pytest.mark.parametrize(
        "clauses",
        [
            (("x", "y"),),
            (("x", "y"), ("y", "z")),
            (("a", "b"), ("c", "d")),
            (("p", "q"), ("q", "r"), ("r", "p")),
        ],
    )
    def test_sat_via_exact_oracle(self, clauses):
        formula = Pos2DNF(clauses)
        instance = pos2dnf_instance(formula)

        def oracle(database, answer):
            return rrfreq1(database, instance.constraints, instance.query, answer)

        assert sat_count_via_oracle(formula, oracle) == formula.count_satisfying()

    def test_repairs_are_assignments(self):
        from repro.exact import candidate_repairs

        formula = Pos2DNF((("x", "y"),))
        instance = pos2dnf_instance(formula)
        satisfying = 0
        repairs = list(
            candidate_repairs(
                instance.database, instance.constraints, singleton_only=True
            )
        )
        assert len(repairs) == 4
        for repair in repairs:
            assignment = repair_to_assignment(instance, repair)
            assert instance.query.entails(repair) == formula.evaluate(assignment)
            satisfying += formula.evaluate(assignment)
        assert satisfying == 1
