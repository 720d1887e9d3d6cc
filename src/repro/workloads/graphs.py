"""Random graph workloads for the reduction and scaling experiments.

The hardness constructions consume graphs: ♯H-Coloring (Theorem 5.1(1))
takes arbitrary graphs, while Prop 5.5's independent-set encoding requires
*degree-bounded* inputs (its relation arity is the maximum degree plus
one) and the `multikey` workloads additionally want them connected.  The
generators here produce those inputs reproducibly from a seeded RNG.
"""

from __future__ import annotations

import random

from ..core.graphs import UndirectedGraph
from ..sampling.rng import resolve_rng


def random_graph(
    n: int, edge_probability: float, rng: random.Random | None = None
) -> UndirectedGraph:
    """An Erdős–Rényi ``G(n, p)`` graph on nodes ``0..n-1`` (loop-free)."""
    rng = resolve_rng(rng)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return UndirectedGraph.of(range(n), edges)


def random_connected_graph(
    n: int, extra_edge_probability: float = 0.2, rng: random.Random | None = None
) -> UndirectedGraph:
    """A connected graph: a random spanning tree plus extra random edges."""
    rng = resolve_rng(rng)
    if n < 1:
        raise ValueError("need at least one node")
    edges: set[tuple[int, int]] = set()
    for node in range(1, n):
        parent = rng.randrange(node)
        edges.add((parent, node))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_probability:
                edges.add((i, j))
    return UndirectedGraph.of(range(n), sorted(edges))


def random_bounded_degree_graph(
    n: int,
    max_degree: int,
    target_edges: int | None = None,
    rng: random.Random | None = None,
) -> UndirectedGraph:
    """A random loop-free graph whose degree never exceeds ``max_degree``.

    Greedy edge insertion; used to exercise the Prop 5.5 construction, whose
    relation arity is ``Δ + 1``.
    """
    rng = resolve_rng(rng)
    if target_edges is None:
        target_edges = (n * max_degree) // 3
    degree = {u: 0 for u in range(n)}
    edges: set[tuple[int, int]] = set()
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    for i, j in candidates:
        if len(edges) >= target_edges:
            break
        if degree[i] < max_degree and degree[j] < max_degree:
            edges.add((i, j))
            degree[i] += 1
            degree[j] += 1
    return UndirectedGraph.of(range(n), sorted(edges))


def random_connected_bounded_degree_graph(
    n: int, max_degree: int, rng: random.Random | None = None
) -> UndirectedGraph:
    """Connected and degree-bounded: a path backbone plus random extras.

    Requires ``max_degree >= 2``.  The path consumes at most two degrees per
    node, and extras are added only while both endpoints have headroom.
    """
    rng = resolve_rng(rng)
    if max_degree < 2:
        raise ValueError("a connected graph on n >= 3 nodes needs max_degree >= 2")
    degree = {u: 0 for u in range(n)}
    edges: set[tuple[int, int]] = set()
    for node in range(n - 1):
        edges.add((node, node + 1))
        degree[node] += 1
        degree[node + 1] += 1
    candidates = [(i, j) for i in range(n) for j in range(i + 2, n)]
    rng.shuffle(candidates)
    extras = n // 2
    for i, j in candidates:
        if extras <= 0:
            break
        if degree[i] < max_degree and degree[j] < max_degree:
            edges.add((i, j))
            degree[i] += 1
            degree[j] += 1
            extras -= 1
    return UndirectedGraph.of(range(n), sorted(edges))
