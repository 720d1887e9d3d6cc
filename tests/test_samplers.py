"""Tests for the three polynomial samplers: support, validity, uniformity."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis import repair_distribution
from repro.chains.generators import M_UO, M_UO1
from repro.exact.enumerate import candidate_repairs
from repro.exact.state_space import StateSpaceEngine
from repro.sampling.operations_sampler import UniformOperationsSampler
from repro.sampling.repair_sampler import RepairSampler, sample_candidate_repair
from repro.sampling.sequence_sampler import SequenceSampler, sample_complete_sequence
from repro.workloads import block_database, fd_star_database


def frequencies(draws):
    counts = Counter(draws)
    total = sum(counts.values())
    return {item: count / total for item, count in counts.items()}


class TestRepairSampler:
    def test_support_is_corep(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, rng=rng)
        support = frozenset(candidate_repairs(database, constraints))
        seen = {sampler.sample() for _ in range(600)}
        assert seen == support  # 12 outcomes, 600 draws: all seen w.h.p.

    def test_support_size_matches_lemma52(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, rng=rng)
        assert sampler.support_size == 12

    def test_uniformity(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, rng=rng)
        n = 24_000
        freq = frequencies(sampler.sample() for _ in range(n))
        for repair, observed in freq.items():
            assert observed == pytest.approx(1 / 12, abs=0.02)

    def test_samples_are_valid_repairs(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, rng=rng)
        for _ in range(50):
            repair = sampler.sample()
            assert repair <= database
            assert constraints.satisfied_by(repair)

    def test_singleton_variant_support(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, singleton_only=True, rng=rng)
        assert sampler.support_size == 6
        support = frozenset(
            candidate_repairs(database, constraints, singleton_only=True)
        )
        seen = {sampler.sample() for _ in range(400)}
        assert seen == support

    def test_singleton_uniformity(self, figure2, rng):
        database, constraints = figure2
        sampler = RepairSampler(database, constraints, singleton_only=True, rng=rng)
        freq = frequencies(sampler.sample() for _ in range(12_000))
        for observed in freq.values():
            assert observed == pytest.approx(1 / 6, abs=0.02)

    def test_one_shot_helper(self, figure2, rng):
        database, constraints = figure2
        repair = sample_candidate_repair(database, constraints, rng=rng)
        assert constraints.satisfied_by(repair)

    def test_requires_primary_keys(self, running_example, rng):
        database, constraints, _ = running_example
        with pytest.raises(Exception):
            RepairSampler(database, constraints, rng=rng)


class TestSequenceSampler:
    def test_samples_are_complete_sequences(self, figure2, rng):
        database, constraints = figure2
        sampler = SequenceSampler(database, constraints, rng=rng)
        for _ in range(40):
            s = sampler.sample()
            assert s.is_complete(database, constraints)

    def test_support_size_is_99(self, figure2, rng):
        database, constraints = figure2
        sampler = SequenceSampler(database, constraints, rng=rng)
        assert sampler.support_size == 99

    def test_uniform_over_crs(self, rng):
        database, constraints = block_database([3])
        sampler = SequenceSampler(database, constraints, rng=rng)
        assert sampler.support_size == 12
        freq = frequencies(sampler.sample() for _ in range(24_000))
        assert len(freq) == 12
        for observed in freq.values():
            assert observed == pytest.approx(1 / 12, abs=0.02)

    def test_uniform_over_crs_two_blocks(self, rng):
        database, constraints = block_database([2, 2])
        sampler = SequenceSampler(database, constraints, rng=rng)
        engine = StateSpaceEngine(database, constraints)
        expected = engine.count_complete_sequences()
        assert sampler.support_size == expected
        freq = frequencies(sampler.sample() for _ in range(30_000))
        assert len(freq) == expected
        for observed in freq.values():
            assert observed == pytest.approx(1 / expected, abs=0.02)

    def test_singleton_sequences_valid_and_uniform(self, rng):
        database, constraints = block_database([3])
        sampler = SequenceSampler(database, constraints, singleton_only=True, rng=rng)
        assert sampler.support_size == 6
        freq = frequencies(sampler.sample() for _ in range(12_000))
        assert len(freq) == 6
        for s in freq:
            assert s.uses_only_singletons()
        for observed in freq.values():
            assert observed == pytest.approx(1 / 6, abs=0.02)

    def test_sample_result_consistent(self, figure2, rng):
        database, constraints = figure2
        sampler = SequenceSampler(database, constraints, rng=rng)
        for _ in range(20):
            assert constraints.satisfied_by(sampler.sample_result())

    def test_one_shot_helper(self, figure2, rng):
        database, constraints = figure2
        s = sample_complete_sequence(database, constraints, rng=rng)
        assert s.is_complete(database, constraints)


class TestUniformOperationsSampler:
    def test_walk_produces_complete_sequence(self, running_example, rng):
        database, constraints, _ = running_example
        sampler = UniformOperationsSampler(database, constraints, rng=rng)
        result = sampler.walk()
        assert result.sequence.is_complete(database, constraints)
        assert result.repair == result.sequence.apply(database)

    def test_walk_probability_matches_chain(self, running_example, rng):
        from repro.chains.generators import M_UO

        database, constraints, _ = running_example
        chain = M_UO.chain(database, constraints)
        distribution = chain.leaf_distribution()
        sampler = UniformOperationsSampler(database, constraints, rng=rng)
        for _ in range(20):
            result = sampler.walk()
            assert distribution[result.sequence] == result.probability

    def test_repair_distribution_matches_exact(self, running_example, rng):
        database, constraints, _ = running_example
        exact = repair_distribution(database, constraints, M_UO)
        sampler = UniformOperationsSampler(database, constraints, rng=rng)
        freq = frequencies(sampler.sample() for _ in range(30_000))
        assert set(freq) == set(exact)
        for repair, probability in exact.items():
            assert freq[repair] == pytest.approx(float(probability), abs=0.02)

    def test_works_for_nonkey_fds(self, rng):
        database, constraints = fd_star_database(n_stars=1, spokes_per_star=3)
        sampler = UniformOperationsSampler(database, constraints, rng=rng)
        for _ in range(20):
            result = sampler.walk()
            assert constraints.satisfied_by(result.repair)
            assert 0 < result.probability <= 1

    def test_singleton_walks_never_use_pairs(self, running_example, rng):
        database, constraints, _ = running_example
        sampler = UniformOperationsSampler(
            database, constraints, singleton_only=True, rng=rng
        )
        for _ in range(30):
            result = sampler.walk()
            assert result.sequence.uses_only_singletons()

    def test_singleton_distribution_matches_exact(self, running_example, rng):
        database, constraints, _ = running_example
        exact = repair_distribution(database, constraints, M_UO1)
        sampler = UniformOperationsSampler(
            database, constraints, singleton_only=True, rng=rng
        )
        freq = frequencies(sampler.sample() for _ in range(20_000))
        assert set(freq) == set(exact)
        for repair, probability in exact.items():
            assert freq[repair] == pytest.approx(float(probability), abs=0.02)

    def test_consistent_database_empty_walk(self, rng):
        database, constraints = block_database([1, 1])
        sampler = UniformOperationsSampler(database, constraints, rng=rng)
        result = sampler.walk()
        assert result.sequence.is_empty
        assert result.repair == database
        assert result.probability == Fraction(1)
