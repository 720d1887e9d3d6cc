"""Tests for Misra–Gries edge colouring and the Prop 5.5 construction."""

import random

import pytest

from repro.core.graphs import (
    UndirectedGraph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    path_graph,
    relabel,
    star_graph,
)
from repro.exact import count_candidate_repairs
from repro.reductions.vizing import (
    independent_set_database,
    misra_gries_edge_coloring,
    validate_edge_coloring,
)
from repro.workloads.graphs import random_connected_graph, random_graph


class TestEdgeColoring:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(2), path_graph(5), cycle_graph(3), cycle_graph(6),
         complete_graph(4), complete_graph(5), star_graph(6)],
        ids=["P2", "P5", "C3", "C6", "K4", "K5", "S6"],
    )
    def test_proper_coloring_on_named_graphs(self, graph):
        colors = misra_gries_edge_coloring(graph)
        validate_edge_coloring(graph, colors)

    @pytest.mark.parametrize("seed", range(12))
    def test_proper_coloring_on_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng.randint(4, 12), rng.uniform(0.2, 0.7), rng)
        colors = misra_gries_edge_coloring(graph)
        validate_edge_coloring(graph, colors)

    @pytest.mark.parametrize("seed", range(8))
    def test_proper_coloring_on_random_connected_graphs(self, seed):
        rng = random.Random(1000 + seed)
        graph = random_connected_graph(rng.randint(4, 10), 0.3, rng)
        colors = misra_gries_edge_coloring(graph)
        validate_edge_coloring(graph, colors)

    def test_even_cycle_uses_two_colors_possible(self):
        # Not required, but the palette must never exceed Δ + 1 = 3.
        colors = misra_gries_edge_coloring(cycle_graph(6))
        assert len(set(colors.values())) <= 3

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            misra_gries_edge_coloring(UndirectedGraph.of([0], [(0, 0)]))


class TestIndependentSetDatabase:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(3), cycle_graph(4), complete_graph(4), star_graph(4)],
        ids=["P3", "C4", "K4", "S4"],
    )
    def test_conflict_graph_isomorphic(self, graph):
        instance = independent_set_database(graph)
        assert conflict_graph(instance.database, instance.constraints) == relabel(
            graph, instance.node_to_fact
        )

    @pytest.mark.parametrize(
        "graph",
        [path_graph(3), path_graph(4), cycle_graph(4), complete_graph(4)],
        ids=["P3", "P4", "C4", "K4"],
    )
    def test_lemma_5_4_identity(self, graph):
        """|CORep(D_G, Σ_K)| = |IS(G)| for connected G (Prop 5.5 + Lemma 5.4)."""
        instance = independent_set_database(graph)
        assert count_candidate_repairs(
            instance.database, instance.constraints
        ) == graph.count_independent_sets()

    @pytest.mark.parametrize(
        "graph",
        [path_graph(3), cycle_graph(4)],
        ids=["P3", "C4"],
    )
    def test_lemma_e_4_identity(self, graph):
        """|CORep¹(D_G, Σ_K)| = |IS≠∅(G)| (Lemma E.4 via Prop E.5)."""
        instance = independent_set_database(graph)
        assert count_candidate_repairs(
            instance.database, instance.constraints, singleton_only=True
        ) == graph.count_nonempty_independent_sets()

    @pytest.mark.parametrize("seed", range(6))
    def test_identity_on_random_connected_graphs(self, seed):
        rng = random.Random(2000 + seed)
        graph = random_connected_graph(rng.randint(3, 7), 0.3, rng)
        instance = independent_set_database(graph)
        assert count_candidate_repairs(
            instance.database, instance.constraints
        ) == graph.count_independent_sets()

    def test_keys_not_primary(self):
        instance = independent_set_database(path_graph(3))
        assert instance.constraints.all_keys()
        assert not instance.constraints.is_primary_keys()

    def test_arity_is_delta_plus_one(self):
        instance = independent_set_database(complete_graph(4))
        relation = instance.constraints.schema.relation("R")
        assert relation.arity == 4  # Δ = 3 for K4

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError):
            independent_set_database(path_graph(1))
