"""Tests for the polynomial ground-survival engines against exact values."""

import random
from fractions import Fraction

import pytest

from repro.core import fact
from repro.core.queries import Atom, boolean_cq
from repro.counting.survival import (
    ground_survival_mur,
    ground_survival_mus,
)
from repro.engine import LAWS
from repro.exact import rrfreq, rrfreq1, srfreq, srfreq1
from repro.workloads import block_database, figure2_database, random_block_database


def ground_query(facts):
    return boolean_cq(*(Atom(f.relation, f.values) for f in sorted(facts, key=str)))


class TestSingleFact:
    def test_example_b3(self, figure2):
        database, constraints = figure2
        f = fact("R", "a1", "b1")
        assert ground_survival_mur(database, constraints, {f}) == Fraction(1, 4)

    def test_example_c3(self, figure2):
        database, constraints = figure2
        f = fact("R", "a1", "b1")
        assert ground_survival_mus(database, constraints, {f}) == Fraction(24, 99)

    def test_singleton_variants(self, figure2):
        database, constraints = figure2
        f = fact("R", "a1", "b1")
        assert ground_survival_mur(
            database, constraints, {f}, singleton_only=True
        ) == Fraction(1, 3)

    def test_isolated_fact_survives_surely(self, figure2):
        database, constraints = figure2
        iso = fact("R", "a2", "b1")
        assert ground_survival_mur(database, constraints, {iso}) == 1
        assert ground_survival_mus(database, constraints, {iso}) == 1
        assert ground_survival_mur(
            database, constraints, {iso}, singleton_only=True
        ) == 1

    def test_missing_fact_rejected(self, figure2):
        database, constraints = figure2
        with pytest.raises(Exception):
            ground_survival_mur(database, constraints, {fact("R", "zz", "zz")})

    def test_law_table_survival(self, figure2):
        database, constraints = figure2
        f = frozenset([fact("R", "a1", "b1")])
        assert LAWS["M_ur"].survival(database, constraints, f) == Fraction(1, 4)
        assert LAWS["M_us"].survival(database, constraints, f) == Fraction(24, 99)
        assert LAWS["M_ur,1"].survival(database, constraints, f) == Fraction(1, 3)
        assert LAWS["M_us,1"].survival(database, constraints, f) == Fraction(1, 3)
        assert LAWS["M_uo"].survival is None
        with pytest.raises(KeyError):
            LAWS["M_xx"]


class TestJointGroundSets:
    def test_same_block_zero(self, figure2):
        database, constraints = figure2
        pair = {fact("R", "a1", "b1"), fact("R", "a1", "b2")}
        assert ground_survival_mur(database, constraints, pair) == 0
        assert ground_survival_mus(database, constraints, pair) == 0
        assert ground_survival_mur(
            database, constraints, pair, singleton_only=True
        ) == 0

    def test_cross_block_matches_exact(self, figure2):
        database, constraints = figure2
        pair = {fact("R", "a1", "b1"), fact("R", "a3", "b2")}
        query = ground_query(pair)
        assert ground_survival_mur(database, constraints, pair) == rrfreq(
            database, constraints, query
        )
        assert ground_survival_mus(database, constraints, pair) == srfreq(
            database, constraints, query
        )
        assert ground_survival_mur(
            database, constraints, pair, singleton_only=True
        ) == srfreq1(database, constraints, query)

    def test_mus_joint_is_not_a_product(self):
        """Interleavings couple block outcomes: the M_us joint differs from
        the product of marginals (unlike M_ur).  Two blocks of three facts
        witness the dependence (19/333 vs 2809/49284)."""
        database, constraints = block_database([3, 3])
        f = fact("R", "a0", "b0")
        g = fact("R", "a1", "b0")
        joint = ground_survival_mus(database, constraints, {f, g})
        product = ground_survival_mus(database, constraints, {f}) * ground_survival_mus(
            database, constraints, {g}
        )
        assert joint == Fraction(19, 333)
        assert joint != product

    def test_mur_joint_is_a_product(self, figure2):
        database, constraints = figure2
        f = fact("R", "a1", "b1")
        g = fact("R", "a3", "b2")
        assert ground_survival_mur(database, constraints, {f, g}) == (
            ground_survival_mur(database, constraints, {f})
            * ground_survival_mur(database, constraints, {g})
        )

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (3, 3), (2, 2, 2)])
    def test_random_ground_sets_match_exact(self, sizes):
        database, constraints = block_database(list(sizes))
        chosen = {
            fact("R", f"a{i}", "b0") for i in range(len(sizes))
        }
        query = ground_query(chosen)
        assert ground_survival_mur(database, constraints, chosen) == rrfreq(
            database, constraints, query
        )
        assert ground_survival_mus(database, constraints, chosen) == srfreq(
            database, constraints, query
        )
        assert ground_survival_mur(
            database, constraints, chosen, singleton_only=True
        ) == srfreq1(database, constraints, query)
        assert ground_survival_mur(
            database, constraints, chosen, singleton_only=True
        ) == rrfreq1(database, constraints, query)

    def test_scales_beyond_exact_engines(self):
        """The polynomial path handles instances enumeration cannot."""
        database, constraints = random_block_database(
            50, 6, random.Random(1), min_block_size=2
        )
        target = database.sorted_facts()[0]
        value = ground_survival_mus(database, constraints, {target})
        assert 0 < value < 1
