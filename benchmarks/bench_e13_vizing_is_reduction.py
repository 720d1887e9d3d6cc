"""E13 — Proposition 5.5 / Lemmas 5.4, E.4: graphs as key-conflict databases.

Regenerates the ``|CORep(D_G, Σ_K)| = |IS(G)|`` identity (and the non-empty
variant for singleton operations) on bounded-degree connected graphs via
the Misra–Gries edge colouring, and times the polynomial construction.
"""

import random

from repro.core.graphs import conflict_graph
from repro.exact import count_candidate_repairs
from repro.reductions.vizing import independent_set_database
from repro.workloads.graphs import random_connected_bounded_degree_graph

from bench_utils import emit


def identity_sweep():
    rows = []
    for seed, n_nodes in ((500, 5), (501, 6), (502, 7), (503, 8)):
        graph = random_connected_bounded_degree_graph(
            n_nodes, 3, random.Random(seed)
        )
        instance = independent_set_database(graph)
        corep = count_candidate_repairs(instance.database, instance.constraints)
        corep1 = count_candidate_repairs(
            instance.database, instance.constraints, singleton_only=True
        )
        rows.append((seed, graph, instance, corep, corep1))
    return rows


def test_e13_identity(benchmark):
    rows = benchmark(identity_sweep)
    for seed, graph, instance, corep, corep1 in rows:
        independent_sets = graph.count_independent_sets()
        assert corep == independent_sets  # Lemma 5.4 via Prop 5.5
        assert corep1 == independent_sets - 1  # Lemma E.4
        conflict = conflict_graph(instance.database, instance.constraints)
        assert conflict.edge_count() == graph.edge_count()
        emit(
            "E13",
            seed=seed,
            nodes=graph.node_count(),
            edges=graph.edge_count(),
            corep=corep,
            independent_sets=independent_sets,
            corep1=corep1,
        )
    emit("E13", identity="|CORep| = |IS(G)|, |CORep1| = |IS(G)| - 1")


def test_e13_construction_cost(benchmark):
    """The encoding (including Misra–Gries) is polynomial — time it at n=40."""
    graph = random_connected_bounded_degree_graph(40, 4, random.Random(510))

    def construct():
        return independent_set_database(graph)

    instance = benchmark(construct)
    relation = instance.constraints.schema.relation("R")
    assert relation.arity == graph.max_degree() + 1
    emit(
        "E13",
        construction="Misra-Gries + facts",
        nodes=40,
        arity=relation.arity,
        keys=len(instance.constraints),
    )
