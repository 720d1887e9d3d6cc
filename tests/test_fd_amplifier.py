"""Tests for the Lemma 5.6 FD amplifier and the FPRAS transfer algorithm."""

from fractions import Fraction

import pytest

from repro.core.graphs import conflict_graph, cycle_graph, path_graph
from repro.exact import count_candidate_repairs, rrfreq, rrfreq1
from repro.reductions.fd_amplifier import (
    amplify,
    repair_count_via_rrfreq,
    singleton_repair_count_via_rrfreq1,
)
from repro.reductions.vizing import independent_set_database


@pytest.fixture
def keys_instance():
    """A non-trivially Σ_K-connected keys instance (P3 via Prop 5.5)."""
    return independent_set_database(path_graph(3))


class TestAmplifierConstruction:
    def test_constraints_are_fds_not_keys(self, keys_instance):
        amplified = amplify(keys_instance.database, keys_instance.constraints)
        assert not amplified.constraints.all_keys()
        assert len(amplified.constraints) == len(keys_instance.constraints) + 1

    def test_apex_conflicts_with_everything(self, keys_instance):
        amplified = amplify(keys_instance.database, keys_instance.constraints)
        graph = conflict_graph(amplified.database, amplified.constraints)
        assert graph.degree(amplified.apex) == len(amplified.database) - 1
        assert graph.is_nontrivially_connected()

    def test_count_identity(self, keys_instance):
        """|CORep(D_F, Σ_F)| = |CORep(D, Σ_K)| + 1."""
        base = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints
        )
        amplified = amplify(keys_instance.database, keys_instance.constraints)
        assert (
            count_candidate_repairs(amplified.database, amplified.constraints)
            == base + 1
        )

    def test_rrfreq_identity(self, keys_instance):
        """rrfreq_{Σ_F,Q_F}(D_F) = 1 / (|CORep(D, Σ_K)| + 1)."""
        base = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints
        )
        amplified = amplify(keys_instance.database, keys_instance.constraints)
        assert rrfreq(
            amplified.database, amplified.constraints, amplified.query
        ) == Fraction(1, base + 1)

    def test_only_apex_repair_satisfies_query(self, keys_instance):
        from repro.exact import candidate_repairs
        from repro.core.database import Database

        amplified = amplify(keys_instance.database, keys_instance.constraints)
        satisfying = [
            repair
            for repair in candidate_repairs(amplified.database, amplified.constraints)
            if amplified.query.entails(repair)
        ]
        assert satisfying == [Database([amplified.apex])]

    def test_rejects_nonkey_constraints(self, figure2):
        from repro.core.dependencies import FDSet, fd

        database, constraints = figure2
        schema = constraints.schema
        with pytest.raises(ValueError):
            amplify(database, FDSet(schema, [fd("R", "A1", "A1")]))


class TestTransferAlgorithm:
    def test_exact_oracle_recovers_count(self, keys_instance):
        base = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints
        )

        def exact_oracle(database, constraints, query, answer):
            return rrfreq(database, constraints, query, answer)

        estimate = repair_count_via_rrfreq(
            keys_instance.database, keys_instance.constraints, exact_oracle
        )
        assert estimate == base

    def test_exact_oracle_on_cycle(self):
        instance = independent_set_database(cycle_graph(4))
        base = count_candidate_repairs(instance.database, instance.constraints)

        def exact_oracle(database, constraints, query, answer):
            return rrfreq(database, constraints, query, answer)

        assert repair_count_via_rrfreq(
            instance.database, instance.constraints, exact_oracle
        ) == base

    def test_noisy_oracle_stays_within_relative_error(self, keys_instance):
        base = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints
        )

        def noisy_oracle(database, constraints, query, answer):
            return float(rrfreq(database, constraints, query, answer)) * 1.05

        estimate = repair_count_via_rrfreq(
            keys_instance.database, keys_instance.constraints, noisy_oracle,
            epsilon=0.2,
        )
        assert abs(float(estimate) - base) <= 0.2 * base

    def test_singleton_variant(self, keys_instance):
        base = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints, singleton_only=True
        )

        def exact_oracle(database, constraints, query, answer):
            return rrfreq1(database, constraints, query, answer)

        assert singleton_repair_count_via_rrfreq1(
            keys_instance.database, keys_instance.constraints, exact_oracle
        ) == base
