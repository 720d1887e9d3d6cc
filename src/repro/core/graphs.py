"""Undirected graphs: the conflict graph ``CG(D, Σ)`` and the reductions' inputs.

Section 5's results are about one object, an undirected graph whose
independent sets are the candidate repairs.  ``CG(D, Σ)`` has the facts of
``D`` as nodes and an edge ``{f, g}`` whenever ``{f, g} ̸|= Σ``; Lemma 5.4
states that for a non-trivially ``Σ``-connected database
``|CORep(D, Σ)| = |IS(CG(D, Σ))|`` (Lemma E.4 gives the singleton analogue
with non-empty independent sets), and :mod:`repro.exact.enumerate` applies
it component-wise.  The hardness reductions encode arbitrary graphs the
other way (Prop 5.5, ♯H-Coloring, Lemma B.5), so the same class carries
homomorphism counting and allows self loops, which the ♯H-Coloring target
graph needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping

from .database import Database
from .dependencies import FDSet
from .violations import violating_fact_pairs

Node = Hashable
Edge = frozenset


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """An immutable undirected graph, possibly with self loops.

    ``nodes`` fixes the order every enumeration follows (components,
    independent sets, homomorphisms); ``adjacency`` maps each node to its
    neighbours, and a loop makes a node its own neighbour.  Two graphs are
    equal when their adjacency maps are, whatever their node order.
    """

    nodes: tuple[Node, ...]
    adjacency: Mapping[Node, frozenset[Node]]

    def __post_init__(self) -> None:
        # A private copy: the cached ``edges`` must not drift from the map.
        object.__setattr__(
            self, "adjacency", {u: frozenset(found) for u, found in self.adjacency.items()}
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate nodes")
        if self.adjacency.keys() != set(self.nodes):
            raise ValueError("the adjacency map must have exactly the graph's nodes")
        for u, found in self.adjacency.items():
            for v in found:
                if u not in self.adjacency.get(v, ()):
                    raise ValueError(
                        f"edge {{{u!r}, {v!r}}} mentions an unknown node or is one-sided"
                    )

    @classmethod
    def of(cls, nodes: Iterable[Node], edges: Iterable[tuple[Node, Node]]) -> "UndirectedGraph":
        """Build from nodes and ``(u, v)`` pairs; ``u == v`` is a loop."""
        nodes = tuple(nodes)
        adjacency: dict[Node, set[Node]] = {u: set() for u in nodes}
        for u, v in edges:
            if u not in adjacency or v not in adjacency:
                raise ValueError(f"edge {{{u!r}, {v!r}}} mentions unknown nodes")
            adjacency[u].add(v)
            adjacency[v].add(u)
        return cls(nodes, adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash(self.edges)

    # -- structure ----------------------------------------------------------------

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set; a loop on ``u`` is the one-node edge ``{u}``."""
        return frozenset(
            frozenset((u, v)) for u, found in self.adjacency.items() for v in found
        )

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def neighbours(self, u: Node) -> frozenset[Node]:
        return self.adjacency.get(u, frozenset())

    def degree(self, u: Node) -> int:
        """Number of edges incident to ``u`` (a loop counts once)."""
        return len(self.neighbours(u))

    def max_degree(self) -> int:
        """The degree ``Δ`` of the graph (0 for the empty graph)."""
        return max(map(len, self.adjacency.values()), default=0)

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self.neighbours(u)

    def has_loop(self, u: Node) -> bool:
        return self.has_edge(u, u)

    def loop_free(self) -> bool:
        return not any(u in found for u, found in self.adjacency.items())

    def isolated_nodes(self) -> frozenset[Node]:
        """Nodes without neighbours (in ``CG``, the facts every repair keeps)."""
        return frozenset(u for u in self.nodes if not self.adjacency[u])

    def subgraph(self, nodes: Iterable[Node]) -> "UndirectedGraph":
        """The induced subgraph on ``nodes``, in this graph's node order."""
        keep = frozenset(nodes)
        return UndirectedGraph(
            tuple(u for u in self.nodes if u in keep),
            {u: self.adjacency[u] & keep for u in self.nodes if u in keep},
        )

    # -- connectivity ---------------------------------------------------------------

    def connected_components(self) -> list[frozenset[Node]]:
        """Maximal connected node sets, ordered by their first node."""
        remaining = set(self.nodes)
        components = []
        for start in self.nodes:
            if start not in remaining:
                continue
            component = {start}
            frontier = [start]
            remaining.discard(start)
            while frontier:
                for neighbour in self.adjacency[frontier.pop()]:
                    if neighbour in remaining:
                        remaining.discard(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(frozenset(component))
        return components

    def nontrivial_components(self) -> list[frozenset[Node]]:
        """Components with at least two nodes (the conflict-carrying ones)."""
        return [c for c in self.connected_components() if len(c) > 1]

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def is_nontrivially_connected(self) -> bool:
        """At least two nodes and connected (Section 5's notion)."""
        return self.node_count() >= 2 and self.is_connected()

    # -- independent sets -----------------------------------------------------------

    def _require_loop_free(self) -> None:
        if not self.loop_free():
            raise ValueError("independent sets are defined for loop-free graphs here")

    def is_independent(self, nodes: Iterable[Node]) -> bool:
        keep = frozenset(nodes)
        return all(not (self.neighbours(u) & keep) for u in keep)

    def independent_sets(self) -> Iterator[frozenset[Node]]:
        """All independent sets, including the empty set, in node order.

        Branch-on-a-vertex recursion (exclude ``v`` / include ``v`` and drop
        its closed neighbourhood).  Exponential output in general — intended
        for the small instances exact engines handle.
        """
        self._require_loop_free()

        def recurse(available: frozenset[Node]) -> Iterator[frozenset[Node]]:
            pick = next((v for v in self.nodes if v in available), None)
            if pick is None:
                yield frozenset()
                return
            without = available - {pick}
            yield from recurse(without)
            for inner in recurse(without - self.adjacency[pick]):
                yield inner | {pick}

        yield from recurse(frozenset(self.nodes))

    def count_independent_sets(self) -> int:
        """``|IS(G)|`` via the same branching with memoization on node sets."""
        self._require_loop_free()
        cache: dict[frozenset[Node], int] = {}

        def count(available: frozenset[Node]) -> int:
            if available in cache:
                return cache[available]
            pick = next((v for v in self.nodes if v in available), None)
            if pick is None:
                result = 1
            else:
                without = available - {pick}
                result = count(without) + count(without - self.adjacency[pick])
            cache[available] = result
            return result

        return count(frozenset(self.nodes))

    def count_nonempty_independent_sets(self) -> int:
        """``|IS≠∅(G)|`` (the quantity of Lemmas E.4 and E.6)."""
        return self.count_independent_sets() - 1

    def maximal_independent_sets(self) -> Iterator[frozenset[Node]]:
        """All maximal independent sets — the classical subset repairs of ``CG``.

        Branch-on-a-vertex recursion with maximality as a *pruning*
        condition: a vertex passed over by choice must later gain a chosen
        neighbour (be dominated), so any branch holding a passed-over
        vertex with no remaining available neighbour is cut immediately —
        instead of enumerating all independent sets and post-filtering
        the (potentially exponentially many) non-maximal ones.
        """
        self._require_loop_free()

        def recurse(
            available: frozenset[Node], pending: frozenset[Node], chosen: frozenset[Node]
        ) -> Iterator[frozenset[Node]]:
            # ``pending`` = vertices excluded by choice and not yet
            # dominated; one with no available neighbour never will be.
            for vertex in pending:
                if not (self.adjacency[vertex] & available):
                    return
            pick = next((v for v in self.nodes if v in available), None)
            if pick is None:
                yield chosen  # the prune above guarantees maximality
                return
            without = available - {pick}
            yield from recurse(without, pending | {pick}, chosen)
            neighbours = self.adjacency[pick]
            yield from recurse(
                without - neighbours, pending - neighbours, chosen | {pick}
            )

        yield from recurse(frozenset(self.nodes), frozenset(), frozenset())

    # -- homomorphisms --------------------------------------------------------------

    def homomorphisms_to(self, target: "UndirectedGraph") -> Iterator[dict[Node, Node]]:
        """All homomorphisms from ``self`` into ``target``.

        A mapping ``h`` qualifies when every edge ``{u, v}`` of ``self`` has
        ``{h(u), h(v)}`` an edge of ``target`` (a loop when ``h(u) = h(v)``).
        Backtracking over nodes, checking edges into the assigned prefix.
        """
        assignment: dict[Node, Node] = {}

        def compatible(u: Node, image: Node) -> bool:
            for v in self.adjacency[u]:
                if v == u:
                    if not target.has_loop(image):
                        return False
                elif v in assignment and not target.has_edge(image, assignment[v]):
                    return False
            return True

        def extend(position: int) -> Iterator[dict[Node, Node]]:
            if position == len(self.nodes):
                yield dict(assignment)
                return
            u = self.nodes[position]
            for image in target.nodes:
                if compatible(u, image):
                    assignment[u] = image
                    yield from extend(position + 1)
                    del assignment[u]

        yield from extend(0)

    def count_homomorphisms_to(self, target: "UndirectedGraph") -> int:
        """``|hom(self, target)|`` by exhaustive backtracking."""
        return sum(1 for _ in self.homomorphisms_to(target))


def conflict_graph(database: Database, constraints: FDSet) -> UndirectedGraph:
    """``CG(D, Σ)``, with the facts in ``str`` order."""
    return UndirectedGraph.of(
        sorted(database, key=str),
        (tuple(pair) for pair in violating_fact_pairs(database, constraints)),
    )


def path_graph(n: int) -> UndirectedGraph:
    """The path ``P_n`` on nodes ``0..n-1``."""
    return UndirectedGraph.of(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> UndirectedGraph:
    """The cycle ``C_n`` (requires ``n >= 3``)."""
    if n < 3:
        raise ValueError("a cycle needs at least three nodes")
    return UndirectedGraph.of(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> UndirectedGraph:
    """The clique ``K_n``."""
    return UndirectedGraph.of(
        range(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(n: int) -> UndirectedGraph:
    """A star: centre ``0`` joined to ``1..n``."""
    return UndirectedGraph.of(range(n + 1), [(0, i) for i in range(1, n + 1)])


def relabel(graph: UndirectedGraph, mapping: Mapping[Node, Node]) -> UndirectedGraph:
    """A copy of ``graph`` with nodes renamed through ``mapping`` (a bijection)."""
    return UndirectedGraph(
        tuple(mapping[u] for u in graph.nodes),
        {mapping[u]: frozenset(mapping[v] for v in graph.adjacency[u]) for u in graph.nodes},
    )
