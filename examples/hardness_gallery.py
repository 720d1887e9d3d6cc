#!/usr/bin/env python3
"""Hardness gallery: the paper's negative results as running code.

Every lower-bound construction in the paper is executable:

1. ♯H-Coloring -> RRFreq (Theorem 5.1(1)): the oracle identity
   ``|hom(G, H)| = 3^|V| (1 - rrfreq)`` verified against brute force;
2. ♯Pos2DNF -> RRFreq¹ (Theorem E.1(1)): ``|sat(φ)| = 2^|var| rrfreq¹``;
3. graphs -> key databases (Prop 5.5): ``|CORep(D_G, Σ_K)| = |IS(G)|`` via
   Misra–Gries edge colouring;
4. the FD amplifier (Lemma 5.6): ``|CORep(D_F, Σ_F)| = |CORep(D, Σ_K)| + 1``;
5. the Prop D.6 family: exponentially small ``M_uo`` probabilities.

Run:  python examples/hardness_gallery.py
"""

import random

from repro.core import cycle_graph
from repro.exact import count_candidate_repairs, rrfreq, rrfreq1
from repro.reductions import (
    Pos2DNF,
    amplify,
    count_h_colorings,
    exact_centre_probability,
    hcoloring_instance,
    hom_count_via_oracle,
    independent_set_database,
    misra_gries_edge_coloring,
    pathological_instance,
    pos2dnf_instance,
    proposition_d6_upper_bound,
    repair_count_via_rrfreq,
    sat_count_via_oracle,
)
from repro.workloads import random_connected_bounded_degree_graph


def hcoloring_demo() -> None:
    print("=" * 72)
    print("1. #H-Coloring -> RRFreq (Theorem 5.1(1))")
    print("=" * 72)
    graph = cycle_graph(5)
    instance = hcoloring_instance(graph)
    print(f"  G = C5; D_G has {len(instance.database)} facts; "
          f"repair space 3^5 = {instance.repair_space_size()}")

    def oracle(database, answer):
        return rrfreq(database, instance.constraints, instance.query, answer)

    via_oracle = hom_count_via_oracle(graph, oracle)
    brute = count_h_colorings(graph)
    print(f"  HOM via rrfreq oracle: {via_oracle}; brute force: {brute}")
    assert via_oracle == brute


def pos2dnf_demo() -> None:
    print()
    print("=" * 72)
    print("2. #Pos2DNF -> RRFreq1 (Theorem E.1(1))")
    print("=" * 72)
    formula = Pos2DNF((("x", "y"), ("y", "z"), ("z", "w")))
    instance = pos2dnf_instance(formula)
    print(f"  φ = {formula}")

    def oracle(database, answer):
        return rrfreq1(database, instance.constraints, instance.query, answer)

    via_oracle = sat_count_via_oracle(formula, oracle)
    print(f"  |sat| via rrfreq1 oracle: {via_oracle}; "
          f"brute force: {formula.count_satisfying()}")
    assert via_oracle == formula.count_satisfying()


def vizing_demo() -> None:
    print()
    print("=" * 72)
    print("3. Graphs as key databases (Prop 5.5, via Misra-Gries)")
    print("=" * 72)
    graph = random_connected_bounded_degree_graph(9, 3, random.Random(5))
    colors = misra_gries_edge_coloring(graph)
    print(f"  G: {graph.node_count()} nodes, {graph.edge_count()} edges, "
          f"Δ = {graph.max_degree()}; edge colours used: "
          f"{len(set(colors.values()))} <= Δ+1")
    instance = independent_set_database(graph)
    corep = count_candidate_repairs(instance.database, instance.constraints)
    independent_sets = graph.count_independent_sets()
    print(f"  |CORep(D_G, Σ_K)| = {corep} = |IS(G)| = {independent_sets}")
    assert corep == independent_sets


def amplifier_demo() -> None:
    print()
    print("=" * 72)
    print("4. The FD amplifier (Lemma 5.6)")
    print("=" * 72)
    keys_instance = independent_set_database(cycle_graph(4))
    base = count_candidate_repairs(keys_instance.database, keys_instance.constraints)
    amplified = amplify(keys_instance.database, keys_instance.constraints)
    lifted = count_candidate_repairs(amplified.database, amplified.constraints)
    frequency = rrfreq(amplified.database, amplified.constraints, amplified.query)
    print(f"  keys instance: |CORep| = {base}")
    print(f"  amplified FD instance: |CORep| = {lifted} (= {base} + 1)")
    print(f"  rrfreq(D_F, Q_F) = {frequency} (= 1/(|CORep|+1))")
    recovered = repair_count_via_rrfreq(
        keys_instance.database,
        keys_instance.constraints,
        lambda db, c, q, a: rrfreq(db, c, q, a),
    )
    print(f"  transfer algorithm recovers: {recovered}")
    assert recovered == base


def pathology_demo() -> None:
    print()
    print("=" * 72)
    print("5. Prop D.6: exponentially small probabilities under M_uo + FDs")
    print("=" * 72)
    print(f"  {'n':>4} {'P (exact)':>14} {'2^-(n-1)':>14}")
    for n in (2, 6, 10, 14, 18, 22):
        value = exact_centre_probability(n)
        bound = proposition_d6_upper_bound(n)
        print(f"  {n:>4} {float(value):>14.3e} {float(bound):>14.3e}")
        assert 0 < value <= bound
    instance = pathological_instance(22)
    print(f"  (D_22 holds {len(instance.database)} facts; a Monte-Carlo "
          f"estimator needs ~{int(1 / float(exact_centre_probability(22)))} "
          f"walks per hit)")


if __name__ == "__main__":
    hcoloring_demo()
    pos2dnf_demo()
    vizing_demo()
    amplifier_demo()
    pathology_demo()
