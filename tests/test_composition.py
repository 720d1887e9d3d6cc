"""Tests for the Lemma B.5 component-composition machinery."""

import random

import pytest

from repro.approx.composition import (
    composed_estimate,
    count_independent_sets_composed,
    count_repairs_composed,
    per_component_budget,
)
from repro.core.graphs import UndirectedGraph, cycle_graph, path_graph
from repro.exact import count_candidate_repairs
from repro.workloads import block_database


def disconnected_graph():
    """P3 + C4 + two isolated nodes."""
    nodes = list(range(3)) + [f"c{i}" for i in range(4)] + ["i1", "i2"]
    edges = [(0, 1), (1, 2)] + [
        ("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0")
    ]
    return UndirectedGraph.of(nodes, edges)


class TestBudget:
    def test_schedule(self):
        epsilon, delta = per_component_budget(0.2, 0.1, 5)
        assert epsilon == pytest.approx(0.02)
        assert delta == pytest.approx(0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            per_component_budget(0.2, 0.1, 0)
        with pytest.raises(ValueError):
            per_component_budget(1.5, 0.1, 2)
        with pytest.raises(ValueError):
            per_component_budget(0.2, 0.0, 2)


class TestIndependentSetComposition:
    def test_exact_counter_recovers_total(self):
        graph = disconnected_graph()

        def exact_counter(component, epsilon, delta):
            return float(component.count_independent_sets())

        composed = count_independent_sets_composed(graph, exact_counter, 0.2, 0.1)
        assert composed == pytest.approx(graph.count_independent_sets())

    def test_isolated_nodes_contribute_factor_two(self):
        isolated_only = UndirectedGraph.of(["a", "b", "c"], [])
        composed = count_independent_sets_composed(
            isolated_only, lambda *_: 1.0, 0.2, 0.1
        )
        assert composed == 8.0  # 2^3

    def test_component_budgets_forwarded(self):
        graph = disconnected_graph()
        seen = []

        def recording_counter(component, epsilon, delta):
            seen.append((epsilon, delta))
            return float(component.count_independent_sets())

        count_independent_sets_composed(graph, recording_counter, 0.2, 0.1)
        assert len(seen) == 2  # P3 and C4
        assert all(e == pytest.approx(0.05) for e, _ in seen)
        assert all(d == pytest.approx(0.025) for _, d in seen)

    def test_noisy_counter_error_composes(self):
        """Per-component relative errors within eps/2n compose to within eps."""
        graph = disconnected_graph()
        rng = random.Random(5)

        def noisy_counter(component, epsilon, delta):
            truth = component.count_independent_sets()
            return truth * (1.0 + rng.uniform(-epsilon, epsilon))

        truth = graph.count_independent_sets()
        for _ in range(20):
            composed = count_independent_sets_composed(graph, noisy_counter, 0.2, 0.1)
            assert abs(composed - truth) <= 0.2 * truth


class TestRepairComposition:
    def test_exact_counter_recovers_corep(self):
        database, constraints = block_database([3, 2, 2])

        def exact_counter(component, epsilon, delta):
            return float(count_candidate_repairs(component, constraints))

        composed = count_repairs_composed(
            database, constraints, exact_counter, 0.2, 0.1
        )
        assert composed == pytest.approx(
            count_candidate_repairs(database, constraints)
        )

    def test_singleton_variant(self):
        database, constraints = block_database([3, 2])

        def exact_counter(component, epsilon, delta):
            return float(
                count_candidate_repairs(component, constraints, singleton_only=True)
            )

        composed = count_repairs_composed(
            database, constraints, exact_counter, 0.2, 0.1, singleton_only=True
        )
        assert composed == pytest.approx(
            count_candidate_repairs(database, constraints, singleton_only=True)
        )

    def test_consistent_database_trivial_product(self):
        database, constraints = block_database([1, 1, 1])
        composed = count_repairs_composed(
            database, constraints, lambda *_: 999.0, 0.2, 0.1
        )
        assert composed == 1.0


class TestComposedEstimate:
    def test_empty_components(self):
        assert composed_estimate([], lambda *_: 0.0, 0.2, 0.1, trivial_factor=7.0) == 7.0

    def test_product_structure(self):
        values = {"a": 3.0, "b": 5.0}
        result = composed_estimate(
            ["a", "b"], lambda c, e, d: values[c], 0.2, 0.1, trivial_factor=2.0
        )
        assert result == 30.0
