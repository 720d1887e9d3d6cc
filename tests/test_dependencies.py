"""Unit tests for FDs, keys, primary keys and satisfaction."""

import pytest

from repro.core.database import Database
from repro.core.dependencies import (
    DependencyError,
    FDSet,
    FunctionalDependency,
    fd,
    key,
)
from repro.core.facts import fact
from repro.core.schema import Schema, SchemaError
from repro.core.violations import violating_fact_pairs


@pytest.fixture
def schema():
    return Schema.from_spec({"R": ["A", "B", "C"], "S": ["X", "Y"]})


class TestFunctionalDependency:
    def test_helper_accepts_bare_strings(self):
        dependency = fd("R", "A", "B")
        assert dependency.lhs == frozenset({"A"})
        assert dependency.rhs == frozenset({"B"})

    def test_helper_accepts_iterables(self):
        dependency = fd("R", ["A", "B"], ["C"])
        assert dependency.lhs == frozenset({"A", "B"})

    def test_empty_rhs_rejected(self):
        with pytest.raises(DependencyError):
            fd("R", "A", [])

    def test_validate_against_schema(self, schema):
        fd("R", "A", "B").validate(schema)
        with pytest.raises(SchemaError):
            fd("R", "A", "Z").validate(schema)

    def test_is_key(self, schema):
        assert fd("R", ["A"], ["B", "C"]).is_key(schema)
        assert not fd("R", "A", "B").is_key(schema)
        assert fd("R", ["A", "B"], ["C"]).is_key(schema)

    def test_key_constructor(self, schema):
        dependency = key(schema, "S", "X")
        assert dependency.is_key(schema)
        assert dependency.rhs == frozenset({"Y"})

    def test_key_constructor_rejects_trivial(self, schema):
        with pytest.raises(DependencyError):
            key(schema, "S", ["X", "Y"])

    def test_key_constructor_rejects_unknown(self, schema):
        with pytest.raises(SchemaError):
            key(schema, "S", "Z")

    def test_pair_satisfaction(self, schema):
        dependency = fd("R", "A", "B")
        f = fact("R", 1, "x", "p")
        g = fact("R", 1, "y", "q")
        h = fact("R", 2, "y", "q")
        assert not dependency.pair_satisfies(f, g, schema)
        assert dependency.pair_satisfies(f, h, schema)

    def test_pair_satisfaction_other_relation_vacuous(self, schema):
        dependency = fd("R", "A", "B")
        assert dependency.pair_satisfies(fact("S", 1, 2), fact("S", 1, 3), schema)

    def test_satisfied_by_database(self, schema):
        dependency = fd("R", "A", "B")
        good = Database([fact("R", 1, "x", "p"), fact("R", 1, "x", "q")], schema=schema)
        bad = Database([fact("R", 1, "x", "p"), fact("R", 1, "y", "p")], schema=schema)
        assert dependency.satisfied_by(good, schema)
        assert not dependency.satisfied_by(bad, schema)

    def test_composite_lhs(self, schema):
        dependency = fd("R", ["A", "B"], "C")
        same_group = Database(
            [fact("R", 1, 1, "x"), fact("R", 1, 1, "y")], schema=schema
        )
        split_group = Database(
            [fact("R", 1, 1, "x"), fact("R", 1, 2, "y")], schema=schema
        )
        assert not dependency.satisfied_by(same_group, schema)
        assert dependency.satisfied_by(split_group, schema)

    def test_str(self):
        assert str(fd("R", "A", "B")) == "R: A -> B"


class TestFDSet:
    def test_validation_on_construction(self, schema):
        with pytest.raises(SchemaError):
            FDSet(schema, [fd("R", "A", "Z")])

    def test_all_keys_and_primary_keys(self, schema):
        keys = FDSet(schema, [key(schema, "R", "A"), key(schema, "S", "X")])
        assert keys.all_keys()
        assert keys.is_primary_keys()
        two_keys_one_relation = FDSet(
            schema, [key(schema, "R", "A"), key(schema, "R", "B")]
        )
        assert two_keys_one_relation.all_keys()
        assert not two_keys_one_relation.is_primary_keys()
        plain = FDSet(schema, [fd("R", "A", "B")])
        assert not plain.all_keys()
        assert not plain.is_primary_keys()

    def test_satisfied_by(self, schema, running_example=None):
        constraints = FDSet(schema, [fd("R", "A", "B")])
        consistent = Database([fact("R", 1, "x", "p"), fact("R", 2, "y", "q")], schema=schema)
        inconsistent = Database([fact("R", 1, "x", "p"), fact("R", 1, "y", "q")], schema=schema)
        assert constraints.satisfied_by(consistent)
        assert not constraints.satisfied_by(inconsistent)

    def test_violating_pairs_unique_even_for_two_fds(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        pairs = list(violating_fact_pairs(database, constraints))
        assert len(pairs) == 2
        as_sets = {frozenset(p) for p in pairs}
        assert as_sets == {frozenset({f1, f2}), frozenset({f2, f3})}

    def test_pair_both_fds_reported_once(self, schema):
        # Two facts violating two FDs at once still form one conflicting pair.
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "A", "C")])
        f = fact("R", 1, "x", "p")
        g = fact("R", 1, "y", "q")
        database = Database([f, g], schema=schema)
        assert len(list(violating_fact_pairs(database, constraints))) == 1

    def test_fds_over(self, schema):
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("S", "X", "Y")])
        assert len(constraints.fds_over("R")) == 1
        assert constraints.fds_over("T") == []

    def test_keys_per_relation(self, schema):
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
        assert constraints.keys_per_relation() == {"R": 2}

    def test_hash_and_eq(self, schema):
        first = FDSet(schema, [fd("R", "A", "B")])
        second = FDSet(schema, [fd("R", "A", "B")])
        assert first == second
        assert hash(first) == hash(second)

    def test_iteration_deterministic(self, schema):
        constraints = FDSet(schema, [fd("R", "C", "B"), fd("R", "A", "B")])
        assert [str(d) for d in constraints] == ["R: A -> B", "R: C -> B"]
