"""Unit tests for conflict graphs and independent sets."""

import pytest

from repro.core.database import Database
from repro.core.dependencies import FDSet, fd
from repro.core.facts import fact
from repro.core.graphs import UndirectedGraph, conflict_graph, relabel
from repro.core.schema import Schema
from repro.reductions.hcoloring import H_GRAPH


class TestConstruction:
    def test_running_example_edges(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        graph = conflict_graph(database, constraints)
        assert frozenset(graph.nodes) == frozenset({f1, f2, f3})
        assert graph.edges == frozenset(
            {frozenset({f1, f2}), frozenset({f2, f3})}
        )
        assert graph.degree(f2) == 2
        assert graph.max_degree() == 2

    def test_figure2_block_cliques(self, figure2):
        database, constraints = figure2
        graph = conflict_graph(database, constraints)
        assert graph.edge_count() == 4  # C(3,2) + C(2,2)... 3 + 1
        assert len(graph.isolated_nodes()) == 1

    def test_of_edge_pairs(self):
        f, g, h = fact("R", 1), fact("R", 2), fact("R", 3)
        graph = UndirectedGraph.of([f, g, h], [(f, g)])
        assert graph.has_edge(f, g)
        assert not graph.has_edge(f, h)
        assert graph.isolated_nodes() == frozenset({h})

    @pytest.mark.parametrize(
        "nodes, adjacency",
        [
            ((1, 2), {1: frozenset({2}), 2: frozenset()}),  # one-sided edge
            ((1,), {1: frozenset({9})}),  # neighbour outside the graph
            ((1, 1), {1: frozenset()}),  # duplicate node
            ((1, 2), {1: frozenset()}),  # node without an adjacency entry
        ],
    )
    def test_rejects_inconsistent_adjacency(self, nodes, adjacency):
        with pytest.raises(ValueError):
            UndirectedGraph(nodes, adjacency)

    def test_later_edits_to_the_source_map_do_not_leak_in(self):
        adjacency = {1: set(), 2: set()}
        graph = UndirectedGraph((1, 2), adjacency)
        adjacency[1].add(2)
        adjacency[2].add(1)
        adjacency[1] = {2}
        assert graph.edge_count() == 0
        assert not graph.has_edge(1, 2)
        assert len(graph.connected_components()) == 2
        assert graph == UndirectedGraph.of((1, 2), ())


class TestConnectivity:
    def test_components(self, figure2):
        database, constraints = figure2
        graph = conflict_graph(database, constraints)
        components = graph.connected_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2, 3]
        assert len(graph.nontrivial_components()) == 2

    def test_nontrivially_connected(self, running_example):
        database, constraints, _ = running_example
        graph = conflict_graph(database, constraints)
        assert graph.is_nontrivially_connected()

    def test_single_node_trivially_connected(self):
        f = fact("R", 1)
        graph = UndirectedGraph.of([f], [])
        assert graph.is_connected()
        assert not graph.is_nontrivially_connected()

    def test_subgraph(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        graph = conflict_graph(database, constraints)
        sub = graph.subgraph([f1, f3])
        assert sub.edge_count() == 0
        assert sub.node_count() == 2


class TestIndependentSets:
    def test_path_graph_counts(self, running_example):
        # CG of the running example is the path f1 - f2 - f3:
        # IS = {}, {f1}, {f2}, {f3}, {f1,f3}  ->  5 sets.
        database, constraints, _ = running_example
        graph = conflict_graph(database, constraints)
        assert graph.count_independent_sets() == 5
        assert graph.count_nonempty_independent_sets() == 4
        assert len(list(graph.independent_sets())) == 5

    def test_enumeration_matches_count(self, figure2):
        database, constraints = figure2
        graph = conflict_graph(database, constraints)
        listed = list(graph.independent_sets())
        assert len(listed) == graph.count_independent_sets()
        assert len(set(listed)) == len(listed)
        for independent in listed:
            assert graph.is_independent(independent)

    def test_is_independent(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        graph = conflict_graph(database, constraints)
        assert graph.is_independent([f1, f3])
        assert not graph.is_independent([f1, f2])
        assert graph.is_independent([])

    def test_maximal_independent_sets_of_path(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        graph = conflict_graph(database, constraints)
        maximal = set(graph.maximal_independent_sets())
        assert maximal == {frozenset({f1, f3}), frozenset({f2})}

    def test_clique_independent_sets(self):
        schema = Schema.from_spec({"R": ["A", "B"]})
        constraints = FDSet(schema, [fd("R", "A", "B")])
        database = Database(
            [fact("R", 1, i) for i in range(4)], schema=schema
        )
        graph = conflict_graph(database, constraints)
        # A 4-clique: IS = empty + 4 singletons.
        assert graph.count_independent_sets() == 5

    def test_equality_under_relabel(self, running_example):
        database, constraints, (f1, f2, f3) = running_example
        graph = conflict_graph(database, constraints)
        identity = {f: f for f in (f1, f2, f3)}
        assert relabel(graph, identity) == graph
        swapped = {f1: f2, f2: f1, f3: f3}
        assert relabel(graph, swapped) != graph


class TestDeterministicOrder:
    """Conflict graphs enumerate facts in ``str`` order; other graphs in declared order."""

    def test_conflict_graph_follows_str_order(self):
        schema = Schema.from_spec({"R": ["A", "B"]})
        a2, b1, b2, c1 = fact("R", "a", 2), fact("R", "b", 1), fact("R", "b", 2), fact("R", "c", 1)
        database = Database([c1, b2, a2, b1], schema=schema)
        graph = conflict_graph(database, FDSet(schema, [fd("R", "A", "B")]))
        assert graph.nodes == (a2, b1, b2, c1)
        assert graph.connected_components() == [
            frozenset({a2}), frozenset({b1, b2}), frozenset({c1})
        ]
        assert list(graph.independent_sets()) == [
            frozenset(),
            frozenset({c1}),
            frozenset({b2}),
            frozenset({b2, c1}),
            frozenset({b1}),
            frozenset({b1, c1}),
            frozenset({a2}),
            frozenset({a2, c1}),
            frozenset({a2, b2}),
            frozenset({a2, b2, c1}),
            frozenset({a2, b1}),
            frozenset({a2, b1, c1}),
        ]

    def test_reduction_graph_follows_declared_order(self):
        graph = UndirectedGraph.of(["c", "a", "b", "d"], [("c", "b"), ("a", "d")])
        assert graph.connected_components() == [frozenset("cb"), frozenset("ad")]
        assert list(graph.independent_sets()) == [
            frozenset(),
            frozenset("d"),
            frozenset("b"),
            frozenset("bd"),
            frozenset("a"),
            frozenset("ab"),
            frozenset("c"),
            frozenset("cd"),
            frozenset("ac"),
        ]

    def test_independent_set_methods_reject_loops(self):
        with pytest.raises(ValueError):
            list(H_GRAPH.independent_sets())
        with pytest.raises(ValueError):
            list(H_GRAPH.maximal_independent_sets())
        with pytest.raises(ValueError):
            H_GRAPH.count_independent_sets()
        with pytest.raises(ValueError):
            H_GRAPH.count_nonempty_independent_sets()
