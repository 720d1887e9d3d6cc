"""E11 — Theorems 5.1(1), 6.1(1), 7.1(1): the ♯H-Coloring reduction.

Validates the Turing reduction's oracle identity
``|hom(G, H)| = 3^{|V|} (1 - rrfreq)`` on a family of graphs, the
cross-semantics identities ``rrfreq = srfreq = P_{M_uo}`` on ``D_G``
(Appendices C.1 and D.1), and shows the exponential growth of exact
computation on these instances (the ♯P-hardness shape).
"""

import time

from repro.chains.generators import M_UO
from repro.core.graphs import complete_graph, cycle_graph, path_graph
from repro.exact import exact_ocqa, rrfreq, srfreq
from repro.reductions.hcoloring import (
    count_h_colorings,
    hcoloring_instance,
    hom_count_via_oracle,
)

from bench_utils import emit

GRAPHS = [
    ("P2", path_graph(2)),
    ("P3", path_graph(3)),
    ("C3", cycle_graph(3)),
    ("C4", cycle_graph(4)),
    ("K3", complete_graph(3)),
]


def oracle_identity_sweep():
    rows = []
    for name, graph in GRAPHS:
        instance = hcoloring_instance(graph)

        def oracle(database, answer, _constraints=instance.constraints, _q=instance.query):
            return rrfreq(database, _constraints, _q, answer)

        via_oracle = hom_count_via_oracle(graph, oracle)
        brute = count_h_colorings(graph)
        rows.append((name, graph, via_oracle, brute))
    return rows


def test_e11_oracle_identity(benchmark):
    rows = benchmark(oracle_identity_sweep)
    for name, graph, via_oracle, brute in rows:
        assert via_oracle == brute
        emit(
            "E11",
            graph=name,
            hom_via_oracle=via_oracle,
            hom_bruteforce=brute,
            repair_space=3 ** graph.node_count(),
        )
    emit("E11", identity="HOM(G) = 3^|V| (1 - rrfreq)", status="exact match")


def test_e11_cross_semantics_identities(benchmark):
    def all_semantics():
        instance = hcoloring_instance(path_graph(3))
        r = rrfreq(instance.database, instance.constraints, instance.query)
        s = srfreq(instance.database, instance.constraints, instance.query)
        u = exact_ocqa(instance.database, instance.constraints, M_UO, instance.query)
        return r, s, u

    r, s, u = benchmark(all_semantics)
    assert r == s == u
    emit("E11", identity="rrfreq = srfreq = P_uo on D_G", value=str(r))


def test_e11_exact_cost_grows_exponentially(benchmark):
    """Shape of ♯P-hardness: exact rrfreq time explodes with |V|."""

    def timed_sweep():
        timings = []
        for n in (2, 3, 4, 5):
            instance = hcoloring_instance(path_graph(n))
            start = time.perf_counter()
            rrfreq(instance.database, instance.constraints, instance.query)
            timings.append((n, time.perf_counter() - start))
        return timings

    timings = benchmark.pedantic(timed_sweep, rounds=1, iterations=1)
    for n, elapsed in timings:
        emit("E11", nodes=n, repairs=3**n, exact_seconds=round(elapsed, 4))
    # Growth factor between consecutive sizes should exceed the 3x repair
    # space growth eventually; require monotone increase as the weak shape.
    assert timings[-1][1] > timings[0][1]
