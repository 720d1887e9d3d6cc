"""Tests for the memoized state-space engines against brute force."""

from fractions import Fraction

import pytest

from repro.chains.generators import M_UO, M_UO1, M_US, M_US1
from repro.core.queries import atom, boolean_cq, var
from repro.exact import exact_ocqa
from repro.exact.enumerate import candidate_repairs_bruteforce, complete_sequences
from repro.exact.state_space import (
    StateSpaceEngine,
    StateSpaceLimit,
    count_complete_sequences,
    count_sequences_with_answer,
)
from repro.workloads import block_database


class TestSequenceCounts:
    def test_running_example_crs(self, running_example):
        database, constraints, _ = running_example
        assert count_complete_sequences(database, constraints) == 9

    def test_running_example_crs1(self, running_example):
        database, constraints, _ = running_example
        assert count_complete_sequences(database, constraints, singleton_only=True) == 5

    def test_figure2_crs_matches_example_c2(self, figure2):
        database, constraints = figure2
        assert count_complete_sequences(database, constraints) == 99

    def test_matches_bruteforce_enumeration(self, figure2):
        database, constraints = figure2
        brute = sum(1 for _ in complete_sequences(database, constraints))
        assert brute == 99

    def test_consistent_database_single_empty_sequence(self, figure2):
        database, constraints = figure2
        repaired = next(
            state for _, state in complete_sequences(database, constraints)
        )
        assert count_complete_sequences(repaired, constraints) == 1

    def test_count_with_accept_predicate(self, figure2):
        database, constraints = figure2
        x = var("x")
        query = boolean_cq(atom("R", "a1", x))
        # Example C.3: 24 sequences keep a fact of block a1... the example
        # counts sequences keeping the specific fact R(a1, b1): 24.
        kept_b1 = count_sequences_with_answer(
            database, constraints, boolean_cq(atom("R", "a1", "b1"))
        )
        assert kept_b1 == 24
        assert count_sequences_with_answer(database, constraints, query) == 72

    def test_max_states_guard(self, figure2):
        database, constraints = figure2
        engine = StateSpaceEngine(database, constraints, max_states=2)
        with pytest.raises(StateSpaceLimit):
            engine.count_complete_sequences()


class TestCandidateRepairs:
    def test_running_example(self, running_example):
        database, constraints, _ = running_example
        engine = StateSpaceEngine(database, constraints)
        assert engine.candidate_repairs() == candidate_repairs_bruteforce(
            database, constraints
        )
        assert len(engine.candidate_repairs()) == 5

    def test_figure2_twelve_repairs(self, figure2):
        database, constraints = figure2
        engine = StateSpaceEngine(database, constraints)
        assert len(engine.candidate_repairs()) == 12

    def test_singleton_repairs(self, figure2):
        database, constraints = figure2
        engine = StateSpaceEngine(database, constraints, singleton_only=True)
        repairs = engine.candidate_repairs()
        assert len(repairs) == 6
        for repair in repairs:
            assert len(repair.facts_of("R")) == 3  # one per block + isolated


class TestUniformOperationsDP:
    def test_probabilities_sum_to_one(self, running_example):
        database, constraints, _ = running_example
        engine = StateSpaceEngine(database, constraints)
        distribution = engine.repair_distribution(M_UO)
        assert sum(distribution.values()) == 1

    def test_matches_explicit_chain(self, running_example):
        database, constraints, _ = running_example
        engine = StateSpaceEngine(database, constraints)
        distribution = engine.repair_distribution(M_UO)
        chain = M_UO.chain(database, constraints)
        assert distribution == chain.repair_probabilities()

    def test_singleton_matches_explicit_chain(self, running_example):
        database, constraints, _ = running_example
        engine = StateSpaceEngine(database, constraints)
        distribution = engine.repair_distribution(M_UO1)
        chain = M_UO1.chain(database, constraints)
        assert distribution == chain.repair_probabilities()

    def test_answer_probability_matches_chain(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a1", "b1"))
        dp_value = exact_ocqa(database, constraints, M_UO, query)
        chain = M_UO.chain(database, constraints, max_nodes=500_000)
        assert dp_value == chain.answer_probability(query)

    def test_certain_fact_probability_one(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "a2", "b1"))  # the isolated fact
        assert exact_ocqa(database, constraints, M_UO, query) == Fraction(1)

    def test_impossible_answer_probability_zero(self, figure2):
        database, constraints = figure2
        query = boolean_cq(atom("R", "zzz", "zzz"))
        assert exact_ocqa(database, constraints, M_UO, query) == Fraction(0)


class TestAgainstExplicitSequenceChains:
    @pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (3, 2)])
    def test_sequence_counts_match_chain_leaves(self, sizes):
        database, constraints = block_database(list(sizes))
        chain = M_US.chain(database, constraints, max_nodes=500_000)
        assert count_complete_sequences(database, constraints) == len(chain.leaves())

    @pytest.mark.parametrize("sizes", [(2,), (2, 2)])
    def test_singleton_counts_match_chain(self, sizes):
        database, constraints = block_database(list(sizes))
        chain = M_US1.chain(database, constraints, max_nodes=500_000)
        positive = [p for p in chain.leaf_distribution().values() if p > 0]
        assert count_complete_sequences(
            database, constraints, singleton_only=True
        ) == len(positive)
