"""Vizing-based encoding of graphs as key-inconsistent databases (Prop 5.5).

Proposition 5.5 needs, for a bounded-degree graph ``G``, a database ``D_G``
over a single relation whose conflict graph w.r.t. a set of *keys* ``Σ_K`` is
isomorphic to ``G`` — then ``|CORep(D_G, Σ_K)| = |IS(G)|`` (Lemma 5.4) and
inapproximability of independent-set counting transfers to repair counting.

The construction edge-colours ``G`` with ``Δ + 1`` colours (Vizing's theorem,
made constructive by the Misra–Gries algorithm [20]) and gives each node a
fact over ``R/(Δ+1)``: position ``i`` holds the (shared) identifier of the
node's colour-``i`` edge, or a fresh constant.  ``Σ_K`` holds one key per
position, so two facts conflict exactly when their nodes share an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.database import Database
from ..core.dependencies import FDSet, FunctionalDependency
from ..core.facts import Fact
from ..core.graphs import Edge, Node, UndirectedGraph
from ..core.schema import Schema


class EdgeColoringError(RuntimeError):
    """Internal failure of the Misra–Gries invariants (should not happen)."""


def misra_gries_edge_coloring(graph: UndirectedGraph) -> dict[Edge, int]:
    """A proper edge colouring with at most ``Δ + 1`` colours, in poly time.

    Implements Misra & Gries' constructive proof of Vizing's theorem:
    repeatedly colour an edge ``(u, v)`` by building a maximal fan of ``u``,
    inverting a ``cd``-path, and rotating a fan prefix.  Colours are
    ``0 .. Δ``.
    """
    if not graph.loop_free():
        raise ValueError("edge colouring requires a loop-free graph")
    palette = range(graph.max_degree() + 1)
    adjacency = {u: sorted(graph.neighbours(u), key=repr) for u in graph.nodes}
    colors: dict[Edge, int] = {}

    def color_of(u: Node, v: Node) -> int | None:
        return colors.get(frozenset((u, v)))

    def used_at(u: Node) -> set[int]:
        return {
            colors[frozenset((u, w))]
            for w in adjacency[u]
            if frozenset((u, w)) in colors
        }

    def is_free(u: Node, colour: int) -> bool:
        return colour not in used_at(u)

    def free_color(u: Node) -> int:
        taken = used_at(u)
        for colour in palette:
            if colour not in taken:
                return colour
        raise EdgeColoringError("no free colour: degree bound violated")

    def maximal_fan(u: Node, v: Node) -> list[Node]:
        fan = [v]
        grown = True
        while grown:
            grown = False
            for w in adjacency[u]:
                if w in fan:
                    continue
                colour = color_of(u, w)
                if colour is not None and is_free(fan[-1], colour):
                    fan.append(w)
                    grown = True
                    break
        return fan

    def is_fan(u: Node, candidate: list[Node]) -> bool:
        if color_of(u, candidate[0]) is not None:
            return False
        for previous, current in zip(candidate, candidate[1:]):
            colour = color_of(u, current)
            if colour is None or not is_free(previous, colour):
                return False
        return True

    def invert_cd_path(u: Node, c: int, d: int) -> None:
        """Swap colours along the maximal path from ``u`` alternating d, c."""
        path = [u]
        want = d
        while True:
            step = next(
                (w for w in adjacency[path[-1]] if color_of(path[-1], w) == want),
                None,
            )
            if step is None or (len(path) >= 2 and step == path[-2]):
                break
            path.append(step)
            want = c if want == d else d
        want = d
        for a, b in zip(path, path[1:]):
            edge = frozenset((a, b))
            colors[edge] = c if colors[edge] == d else d
            want = c if want == d else d

    for raw_edge in sorted(graph.edges, key=repr):
        u, v = sorted(raw_edge, key=repr)
        fan = maximal_fan(u, v)
        c = free_color(u)
        d = free_color(fan[-1])
        if c != d:
            invert_cd_path(u, c, d)
        pivot = next(
            (
                i
                for i, w in enumerate(fan)
                if is_free(w, d) and is_fan(u, fan[: i + 1])
            ),
            None,
        )
        if pivot is None:
            raise EdgeColoringError("no rotatable fan prefix: invariant broken")
        for i in range(pivot):
            colors[frozenset((u, fan[i]))] = colors[frozenset((u, fan[i + 1]))]
        colors[frozenset((u, fan[pivot]))] = d
    return colors


def validate_edge_coloring(graph: UndirectedGraph, colors: dict[Edge, int]) -> None:
    """Raise unless ``colors`` is a proper ``(Δ+1)``-edge-colouring of ``graph``."""
    if set(colors) != set(graph.edges):
        raise EdgeColoringError("colouring does not cover exactly the edge set")
    bound = graph.max_degree() + 1
    for edge, colour in colors.items():
        if not 0 <= colour < bound:
            raise EdgeColoringError(f"edge {set(edge)} uses colour {colour} >= Δ+1")
    for u in graph.nodes:
        incident = [colors[frozenset((u, v))] for v in graph.neighbours(u)]
        if len(incident) != len(set(incident)):
            raise EdgeColoringError(f"two edges at {u!r} share a colour")


@dataclass(frozen=True)
class VizingInstance:
    """``(D_G, Σ_K)`` with the node-to-fact bijection and colouring kept."""

    graph: UndirectedGraph
    database: Database
    constraints: FDSet
    node_to_fact: dict[Node, Fact]
    coloring: dict[Edge, int]


def independent_set_database(graph: UndirectedGraph) -> VizingInstance:
    """The Prop 5.5 construction: ``CG(D_G, Σ_K)`` isomorphic to ``G``.

    Requires a loop-free graph with at least one edge (so that the relation
    arity ``Δ + 1`` is at least two and each positional key is non-trivial).
    """
    if not graph.loop_free():
        raise ValueError("the construction requires a loop-free graph")
    delta = graph.max_degree()
    if delta < 1:
        raise ValueError("the construction needs at least one edge")
    arity = delta + 1
    attributes = [f"A{i + 1}" for i in range(arity)]
    schema = Schema.from_spec({"R": attributes})
    constraints = FDSet(
        schema,
        [
            FunctionalDependency(
                "R",
                frozenset((attribute,)),
                frozenset(attributes) - {attribute},
            )
            for attribute in attributes
        ],
    )
    coloring = misra_gries_edge_coloring(graph)
    validate_edge_coloring(graph, coloring)
    colour_at_node: dict[Node, dict[int, Edge]] = {u: {} for u in graph.nodes}
    for edge, colour in coloring.items():
        for endpoint in edge:
            colour_at_node[endpoint][colour] = edge
    node_to_fact: dict[Node, Fact] = {}
    fresh = 0
    for node in graph.nodes:
        values = []
        for position in range(arity):
            edge = colour_at_node[node].get(position)
            if edge is None:
                values.append(("fresh", fresh))
                fresh += 1
            else:
                values.append(("edge",) + tuple(sorted(edge, key=repr)))
        node_to_fact[node] = Fact("R", tuple(values))
    return VizingInstance(
        graph=graph,
        database=Database(node_to_fact.values(), schema=schema),
        constraints=constraints,
        node_to_fact=node_to_fact,
        coloring=coloring,
    )
