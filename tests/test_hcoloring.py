"""Tests for the ♯H-Coloring reduction (Appendix B.1, C.1, D.1)."""

import pytest

from repro.core.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.chains.generators import M_UO
from repro.exact import exact_ocqa, rrfreq, srfreq
from repro.reductions.hcoloring import (
    H_GRAPH,
    count_h_colorings,
    hcoloring_instance,
    hom_count_via_oracle,
    is_h_homomorphism,
    repair_to_mapping,
)


class TestTargetGraph:
    def test_h_structure(self):
        assert H_GRAPH.node_count() == 3
        assert H_GRAPH.has_loop(0)
        assert H_GRAPH.has_loop("?")
        assert not H_GRAPH.has_loop(1)
        assert H_GRAPH.has_edge(0, 1)
        assert H_GRAPH.has_edge(0, "?")
        assert H_GRAPH.has_edge(1, "?")

    def test_single_edge_hom_count(self):
        # K2 into H: 3x3 = 9 maps minus the (1,1) map = 8.
        assert count_h_colorings(path_graph(2)) == 8

    def test_single_node(self):
        assert count_h_colorings(path_graph(1)) == 3

    def test_triangle(self):
        # All maps of K3 avoiding two endpoints both on 1: 27 - |maps with
        # some edge on (1,1)|; count directly by brute force identity.
        graph = complete_graph(3)
        expected = sum(
            1
            for a in (0, 1, "?")
            for b in (0, 1, "?")
            for c in (0, 1, "?")
            if (a, b) != (1, 1) and (b, c) != (1, 1) and (a, c) != (1, 1)
        )
        assert count_h_colorings(graph) == expected


class TestInstanceConstruction:
    def test_database_shape(self):
        graph = path_graph(3)
        instance = hcoloring_instance(graph)
        assert len(instance.database.facts_of("V")) == 6
        assert len(instance.database.facts_of("E")) == 2
        assert len(instance.database.facts_of("T")) == 1
        assert instance.constraints.is_primary_keys()

    def test_repair_space(self):
        instance = hcoloring_instance(path_graph(3))
        from repro.exact import count_candidate_repairs

        assert (
            count_candidate_repairs(instance.database, instance.constraints)
            == instance.repair_space_size()
            == 27
        )

    def test_rejects_loops(self):
        loopy = UndirectedGraph.of([0], [(0, 0)])
        with pytest.raises(ValueError):
            hcoloring_instance(loopy)


class TestOracleIdentity:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(2), path_graph(3), cycle_graph(3), cycle_graph(4), complete_graph(3)],
        ids=["P2", "P3", "C3", "C4", "K3"],
    )
    def test_hom_count_via_exact_rrfreq(self, graph):
        def oracle(database, answer):
            instance = hcoloring_instance(graph)
            return rrfreq(database, instance.constraints, instance.query, answer)

        assert hom_count_via_oracle(graph, oracle) == count_h_colorings(graph)

    @pytest.mark.parametrize("graph", [path_graph(2), path_graph(3), cycle_graph(3)])
    def test_rrfreq_equals_srfreq_on_dg(self, graph):
        """Appendix C.1: every repair arises from |V|! sequences uniformly."""
        instance = hcoloring_instance(graph)
        r = rrfreq(instance.database, instance.constraints, instance.query)
        s = srfreq(instance.database, instance.constraints, instance.query)
        assert r == s

    @pytest.mark.parametrize("graph", [path_graph(2), path_graph(3)])
    def test_rrfreq_equals_uo_probability_on_dg(self, graph):
        """Appendix D.1: the M_uo leaf distribution is uniform on D_G."""
        instance = hcoloring_instance(graph)
        r = rrfreq(instance.database, instance.constraints, instance.query)
        p = exact_ocqa(instance.database, instance.constraints, M_UO, instance.query)
        assert r == p


class TestRepairMappingBijection:
    def test_repairs_biject_with_maps(self):
        from repro.exact import candidate_repairs

        graph = path_graph(3)
        instance = hcoloring_instance(graph)
        homomorphism_count = 0
        for repair in candidate_repairs(instance.database, instance.constraints):
            mapping = repair_to_mapping(instance, repair)
            entails = instance.query.entails(repair)
            assert is_h_homomorphism(graph, mapping) == (not entails)
            if not entails:
                homomorphism_count += 1
        assert homomorphism_count == count_h_colorings(graph)
