"""Tests for the synthetic workload generators."""

import random

import pytest

from repro.core.blocks import block_decomposition
from repro.core.graphs import conflict_graph
from repro.workloads import (
    block_database,
    block_membership_query,
    block_pair_query,
    fd_star_database,
    figure2_database,
    intro_example,
    merged_sources,
    multikey_database,
    random_block_database,
    random_bounded_degree_graph,
    random_connected_bounded_degree_graph,
    random_connected_graph,
    random_graph,
    random_pos2dnf,
    star_centre_query,
)


class TestBlockWorkloads:
    def test_block_database_sizes(self):
        database, constraints = block_database([3, 1, 2])
        decomposition = block_decomposition(database, constraints)
        assert sorted(len(b) for b in decomposition) == [1, 2, 3]

    def test_figure2_is_block_database(self):
        database, constraints = figure2_database()
        assert len(database) == 6
        assert constraints.is_primary_keys()

    def test_random_block_database_deterministic_with_seed(self):
        first, _ = random_block_database(5, 4, random.Random(9))
        second, _ = random_block_database(5, 4, random.Random(9))
        assert first == second

    def test_random_block_database_respects_bounds(self):
        database, constraints = random_block_database(
            6, 3, random.Random(1), min_block_size=2
        )
        decomposition = block_decomposition(database, constraints)
        assert all(2 <= len(b) <= 3 for b in decomposition)

    def test_queries_run(self):
        database, constraints = figure2_database()
        assert block_membership_query().answers(database)
        assert block_pair_query().entails(database)


class TestMultikeyWorkloads:
    def test_multikey_database_structure(self):
        instance = multikey_database(6, max_degree=3, rng=random.Random(2))
        assert instance.constraints.all_keys()
        assert not instance.constraints.is_primary_keys()
        graph = conflict_graph(instance.database, instance.constraints)
        assert graph.is_nontrivially_connected()

    def test_conflicts_match_generator_graph(self):
        instance = multikey_database(5, max_degree=3, rng=random.Random(3))
        graph = conflict_graph(instance.database, instance.constraints)
        assert graph.edge_count() == instance.graph.edge_count()


class TestFDWorkloads:
    def test_fd_star_shape(self):
        database, constraints = fd_star_database(n_stars=3, spokes_per_star=2)
        assert len(database) == 9
        graph = conflict_graph(database, constraints)
        assert len(graph.nontrivial_components()) == 3
        assert not constraints.all_keys()

    def test_star_centre_query(self):
        database, _ = fd_star_database(n_stars=2, spokes_per_star=2)
        answers = star_centre_query().answers(database)
        assert answers == frozenset({("s0",), ("s1",)})


class TestGraphWorkloads:
    def test_random_graph_loop_free(self):
        graph = random_graph(8, 0.5, random.Random(4))
        assert graph.loop_free()
        assert graph.node_count() == 8

    def test_random_connected_graph_connected(self):
        for seed in range(5):
            graph = random_connected_graph(7, 0.2, random.Random(seed))
            assert graph.is_connected()

    def test_bounded_degree_respected(self):
        for seed in range(5):
            graph = random_bounded_degree_graph(10, 3, rng=random.Random(seed))
            assert graph.max_degree() <= 3

    def test_connected_bounded_degree(self):
        for seed in range(5):
            graph = random_connected_bounded_degree_graph(8, 3, random.Random(seed))
            assert graph.is_connected()
            assert graph.max_degree() <= 3

    def test_connected_bounded_degree_needs_two(self):
        with pytest.raises(ValueError):
            random_connected_bounded_degree_graph(5, 1)


class TestScenarios:
    def test_intro_example(self):
        scenario = intro_example()
        assert len(scenario.database) == 2
        assert not scenario.constraints.satisfied_by(scenario.database)
        assert set(scenario.source_of.values()) == {"source_A", "source_B"}

    def test_merged_sources_blocks(self):
        scenario = merged_sources(10, 3, 0.5, random.Random(6))
        decomposition = block_decomposition(scenario.database, scenario.constraints)
        assert len(decomposition) == 10  # one block per employee id
        assert all(1 <= len(b) <= 3 for b in decomposition)

    def test_merged_sources_source_attribution_total(self):
        scenario = merged_sources(5, 2, 0.3, random.Random(7))
        assert set(scenario.source_of) == set(scenario.database.facts)


class TestFormulas:
    def test_random_pos2dnf_shape(self):
        formula = random_pos2dnf(5, 4, random.Random(8))
        assert len(formula.clauses) == 4
        assert all(a != b for a, b in formula.clauses)

    def test_random_pos2dnf_needs_two_variables(self):
        with pytest.raises(ValueError):
            random_pos2dnf(1, 1)
