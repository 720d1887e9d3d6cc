"""Tests for local chain generators and the trust-weighted chain."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis import repair_distribution
from repro.chains.generators import M_UO, M_UO1
from repro.chains.trust import TrustWeightedOperations
from repro.core.facts import fact
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.exact.state_space import StateSpaceEngine, StateSpaceLimit
from repro.sampling import LocalChainSampler


class TestUniformOperationsAsLocal:
    def test_distribution_covers_ops_and_sums_to_one(self, running_example):
        database, constraints, _ = running_example
        distribution = M_UO.operation_distribution(database, constraints)
        assert len(distribution) == 5
        assert sum(distribution.values()) == 1
        assert set(distribution.values()) == {Fraction(1, 5)}

    def test_singleton_distribution(self, running_example):
        database, constraints, _ = running_example
        distribution = M_UO1.operation_distribution(database, constraints)
        assert sum(distribution.values()) == 1
        singles = {op: p for op, p in distribution.items() if op.is_singleton}
        pairs = {op: p for op, p in distribution.items() if op.is_pair}
        assert set(singles.values()) == {Fraction(1, 3)}
        assert set(pairs.values()) == {Fraction(0)}

    def test_consistent_state_empty_distribution(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        repaired = database.difference([f2])
        assert M_UO.operation_distribution(repaired, constraints) == {}


class TestTrustWeighted:
    def test_intro_example_masses(self, two_fact_conflict):
        """The paper's worked intro numbers: 0.25 both, 0.375 each single."""
        database, constraints, (alice, tom) = two_fact_conflict
        generator = TrustWeightedOperations()
        distribution = generator.operation_distribution(database, constraints)
        by_kind = {
            (op.is_pair, frozenset(op.removed)): p for op, p in distribution.items()
        }
        assert by_kind[(True, frozenset({alice, tom}))] == Fraction(1, 4)
        assert by_kind[(False, frozenset({alice}))] == Fraction(3, 8)
        assert by_kind[(False, frozenset({tom}))] == Fraction(3, 8)

    def test_full_trust_never_pairs(self, two_fact_conflict):
        database, constraints, (alice, tom) = two_fact_conflict
        generator = TrustWeightedOperations.with_trust(
            {alice: Fraction(1), tom: Fraction(1)}
        )
        distribution = generator.operation_distribution(database, constraints)
        pair_mass = sum(p for op, p in distribution.items() if op.is_pair)
        assert pair_mass == 0
        assert sum(distribution.values()) == 1

    def test_zero_trust_always_pairs(self, two_fact_conflict):
        database, constraints, (alice, tom) = two_fact_conflict
        generator = TrustWeightedOperations.with_trust(
            {alice: Fraction(0), tom: Fraction(0)}
        )
        distribution = generator.operation_distribution(database, constraints)
        pair = next(op for op in distribution if op.is_pair)
        assert distribution[pair] == 1

    def test_asymmetric_trust_shifts_mass(self, two_fact_conflict):
        database, constraints, (alice, tom) = two_fact_conflict
        generator = TrustWeightedOperations.with_trust(
            {alice: Fraction(9, 10), tom: Fraction(1, 10)}
        )
        distribution = generator.operation_distribution(database, constraints)
        remove_alice = distribution[
            next(op for op in distribution if op.removed == frozenset({alice}))
        ]
        remove_tom = distribution[
            next(op for op in distribution if op.removed == frozenset({tom}))
        ]
        assert remove_tom > remove_alice  # distrusted facts go first

    def test_invalid_trust_rejected(self):
        with pytest.raises(ValueError):
            TrustWeightedOperations.with_trust({fact("R", 1): Fraction(3, 2)})

    @pytest.mark.parametrize(
        "fields",
        [
            {"trust_items": ((fact("R", 1), Fraction(3, 2)),)},
            {"trust_items": ((fact("R", 1), Fraction(-1, 4)),)},
            {"default_trust": Fraction(5, 4)},
        ],
    )
    def test_direct_construction_rejects_invalid_trust(self, fields):
        with pytest.raises(ValueError, match=r"trust values must lie in \[0, 1\]"):
            TrustWeightedOperations(**fields)

    def test_explicit_chain_validates(self, running_example):
        database, constraints, _ = running_example
        generator = TrustWeightedOperations()
        chain = generator.chain(database, constraints)
        chain.validate()
        assert sum(chain.leaf_distribution().values()) == 1

    def test_singleton_variant_validates(self, running_example):
        database, constraints, _ = running_example
        generator = TrustWeightedOperations(singleton_only=True)
        chain = generator.chain(database, constraints)
        chain.validate()
        for leaf in chain.reachable_leaves():
            assert leaf.sequence.uses_only_singletons()

    def test_name(self):
        assert TrustWeightedOperations().name == "M_trust"
        assert TrustWeightedOperations(singleton_only=True).name == "M_trust,1"


class TestLocalEngines:
    def test_dp_matches_explicit_chain(self, running_example):
        database, constraints, _ = running_example
        generator = TrustWeightedOperations()
        chain = generator.chain(database, constraints)
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        engine = StateSpaceEngine(database, constraints)
        assert engine.answer_probability(
            generator, lambda repair: query.entails(repair, ())
        ) == chain.answer_probability(query)

    def test_repair_distribution_matches_chain(self, running_example):
        database, constraints, _ = running_example
        generator = TrustWeightedOperations()
        chain = generator.chain(database, constraints)
        assert StateSpaceEngine(database, constraints).repair_distribution(
            generator
        ) == chain.repair_probabilities()

    def test_engine_tables_are_per_generator(self, figure2):
        database, constraints = figure2
        engine = StateSpaceEngine(database, constraints)
        for generator in (M_UO, M_UO1, TrustWeightedOperations()):
            assert engine.repair_distribution(generator) == (
                generator.chain(database, constraints).repair_probabilities()
            )

    def test_max_states_guard(self, running_example):
        database, constraints, _ = running_example
        engine = StateSpaceEngine(database, constraints, max_states=2)
        with pytest.raises(StateSpaceLimit):
            engine.repair_distribution(TrustWeightedOperations())

    def test_exact_ocqa_dispatches_local(self, running_example):
        database, constraints, _ = running_example
        generator = TrustWeightedOperations()
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        assert exact_ocqa(database, constraints, generator, query) == (
            generator.chain(database, constraints).answer_probability(query)
        )

    def test_sampler_matches_distribution(self, two_fact_conflict):
        database, constraints, _ = two_fact_conflict
        generator = TrustWeightedOperations()
        exact = repair_distribution(database, constraints, generator)
        sampler = LocalChainSampler(
            database, constraints, generator, rng=random.Random(7)
        )
        counts = Counter(sampler.sample() for _ in range(16_000))
        assert set(counts) == set(exact)
        for repair, probability in exact.items():
            assert counts[repair] / 16_000 == pytest.approx(
                float(probability), abs=0.02
            )

    def test_sampler_walk_probability(self, two_fact_conflict):
        database, constraints, _ = two_fact_conflict
        generator = TrustWeightedOperations()
        sampler = LocalChainSampler(
            database, constraints, generator, rng=random.Random(8)
        )
        sequence, repair, probability = sampler.walk()
        assert sequence.is_complete(database, constraints)
        assert probability in (Fraction(1, 4), Fraction(3, 8))

    def test_sampler_on_consistent_database(self, two_fact_conflict):
        database, constraints, (alice, tom) = two_fact_conflict
        fixed = database.difference([tom])
        generator = TrustWeightedOperations()
        sampler = LocalChainSampler(fixed, constraints, generator)
        sequence, repair, probability = sampler.walk()
        assert sequence.is_empty
        assert repair == fixed
        assert probability == 1

    def test_distribution_sums_on_random_states(self, figure2):
        database, constraints = figure2
        generator = TrustWeightedOperations()
        distribution = generator.operation_distribution(database, constraints)
        assert sum(distribution.values()) == 1
