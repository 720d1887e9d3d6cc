"""Empirical validation of the Lemma 7.4 sequence mapping."""

from collections import Counter
from fractions import Fraction

import pytest

from repro.chains.generators import M_UO
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.exact.enumerate import complete_sequences
from repro.exact.lemma74 import (
    MappingError,
    map_sequence_keeping_fact,
    max_conflicts_with_fact_bound,
    uo_leaf_probability,
)
from repro.workloads import figure2_database, multikey_database


@pytest.fixture
def fig2_target():
    database, constraints = figure2_database()
    target = next(f for f in database if f.values == ("a1", "b1"))
    return database, constraints, target


def split_sequences(database, constraints, target):
    """``(S_f, S_¬f)``: complete sequences keeping / removing ``target``."""
    keeping, removing = [], []
    for sequence, result in complete_sequences(database, constraints):
        if target in result:
            keeping.append(sequence)
        else:
            removing.append(sequence)
    return keeping, removing


class TestMappingStructure:
    def test_image_keeps_fact_and_is_complete(self, fig2_target):
        database, constraints, target = fig2_target
        _, removing = split_sequences(database, constraints, target)
        assert removing  # sanity: the block removes the fact somewhere
        for sequence in removing:
            mapped = map_sequence_keeping_fact(sequence, target, database, constraints)
            assert target in mapped.image.apply(database)
            assert mapped.image.is_complete(database, constraints)

    def test_appended_operations_bounded_by_keys(self, fig2_target):
        database, constraints, target = fig2_target
        bound = max_conflicts_with_fact_bound(constraints, target)
        assert bound == 1  # one (primary) key over R
        _, removing = split_sequences(database, constraints, target)
        for sequence in removing:
            mapped = map_sequence_keeping_fact(sequence, target, database, constraints)
            assert len(mapped.appended_operations) <= bound

    def test_mapping_requires_removal(self, fig2_target):
        database, constraints, target = fig2_target
        keeping, _ = split_sequences(database, constraints, target)
        with pytest.raises(MappingError):
            map_sequence_keeping_fact(keeping[0], target, database, constraints)

    def test_mapping_requires_complete_sequence(self, fig2_target):
        from repro.core.sequences import sequence as make_sequence
        from repro.core.operations import remove

        database, constraints, target = fig2_target
        with pytest.raises(MappingError):
            map_sequence_keeping_fact(
                make_sequence([remove(target)]), target, database, constraints
            )

    def test_bound_requires_keys(self, running_example):
        database, constraints, (f1, _, _) = running_example
        with pytest.raises(MappingError):
            max_conflicts_with_fact_bound(constraints, f1)


class TestLemmaClaims:
    def test_preimage_size_bound(self, fig2_target):
        """Claim (2): |F^{-1}(s')| <= 2|D| - 1."""
        database, constraints, target = fig2_target
        _, removing = split_sequences(database, constraints, target)
        images = Counter(
            map_sequence_keeping_fact(s, target, database, constraints).image
            for s in removing
        )
        limit = 2 * len(database) - 1
        assert max(images.values()) <= limit

    def test_probability_ratio_polynomial(self, fig2_target):
        """Claim (1): π(s) <= pol''(|D|) · π(F(s)) — check a generous poly."""
        database, constraints, target = fig2_target
        _, removing = split_sequences(database, constraints, target)
        generous = Fraction((2 * len(database)) ** 3)
        for sequence in removing:
            mapped = map_sequence_keeping_fact(sequence, target, database, constraints)
            original = uo_leaf_probability(sequence, database, constraints)
            image = uo_leaf_probability(mapped.image, database, constraints)
            assert original <= generous * image

    def test_aggregate_lower_bound_follows(self, fig2_target):
        """The Λ_¬f <= pol'·Λ_f aggregation that proves Prop 7.3."""
        database, constraints, target = fig2_target
        keeping, removing = split_sequences(database, constraints, target)
        lambda_keep = sum(
            (uo_leaf_probability(s, database, constraints) for s in keeping),
            Fraction(0),
        )
        lambda_remove = sum(
            (uo_leaf_probability(s, database, constraints) for s in removing),
            Fraction(0),
        )
        assert lambda_keep + lambda_remove == 1
        assert lambda_keep > 0
        # The target probability equals the DP value.
        query = boolean_cq(atom("R", *target.values))
        assert exact_ocqa(database, constraints, M_UO, query) == lambda_keep

    def test_on_multikey_instance(self, rng):
        """The mapping also works with several keys per relation."""
        instance = multikey_database(4, max_degree=2, rng=rng)
        database, constraints = instance.database, instance.constraints
        target = database.sorted_facts()[0]
        bound = max_conflicts_with_fact_bound(constraints, target)
        assert bound == len(constraints)
        _, removing = split_sequences(database, constraints, target)
        for sequence in removing[:50]:
            mapped = map_sequence_keeping_fact(sequence, target, database, constraints)
            assert target in mapped.image.apply(database)
            assert len(mapped.appended_operations) <= bound
