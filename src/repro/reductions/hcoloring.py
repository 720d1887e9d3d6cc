"""The ♯H-Coloring reduction behind Theorems 5.1(1), 6.1(1) and 7.1(1).

The target graph ``H`` has nodes ``{0, 1, ?}`` and every edge except the
loop on ``1``.  ♯H-Coloring is ♯P-hard by the Dyer–Greenhill dichotomy, and
Appendix B.1 reduces it to ``RRFreq(Σ, Q)`` for the fixed

``Σ = {V : A -> B}``  and  ``Q = Ans() :- E(x, y), V(x, z), V(y, z), T(z)``

via the database ``D_G`` that gives every node both ``V(u, 0)`` and
``V(u, 1)``.  Candidate repairs then choose, per node, value 0, value 1, or
neither — i.e. exactly the maps into ``H`` — and ``D ̸|= Q`` characterizes
homomorphisms.  The oracle identity is ``|hom(G, H)| = 3^{|V|} · (1 − r)``
with ``r = rrfreq_{Σ,Q}(D_G, ())``.

Appendices C.1 and D.1 show ``rrfreq = srfreq = P_{M_uo,Q}`` on these
instances, so the same construction witnesses hardness for all three
uniform semantics.  All of this is executable below and validated against
brute force in the test suite and in bench E11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..core.database import Database
from ..core.dependencies import FDSet, fd
from ..core.facts import Fact, fact
from ..core.graphs import UndirectedGraph
from ..core.queries import ConjunctiveQuery, atom, boolean_cq, var
from ..core.schema import Schema

#: The paper's fixed target graph: all edges over {0, 1, ?} except the 1-loop.
H_GRAPH = UndirectedGraph.of(
    (0, 1, "?"),
    [(0, 0), (0, 1), (0, "?"), (1, "?"), ("?", "?")],
)


@dataclass(frozen=True)
class HColoringInstance:
    """The OCQA instance ``(D_G, Σ, Q)`` encoding an input graph ``G``."""

    graph: UndirectedGraph
    database: Database
    constraints: FDSet
    query: ConjunctiveQuery

    def repair_space_size(self) -> int:
        """``3^{|V_G|}``: the number of candidate repairs of ``D_G``."""
        return 3 ** self.graph.node_count()


def hcoloring_schema() -> Schema:
    """The fixed schema ``{V/2, E/2, T/1}`` of the reduction."""
    return Schema.from_spec({"V": ["A", "B"], "E": ["A", "B"], "T": ["A"]})


def hcoloring_constraints(schema: Schema | None = None) -> FDSet:
    """``Σ = {V : A -> B}`` — a single primary key."""
    return FDSet(schema or hcoloring_schema(), [fd("V", "A", "B")])


def hcoloring_query() -> ConjunctiveQuery:
    """``Q = Ans() :- E(x, y), V(x, z), V(y, z), T(z)``."""
    x, y, z = var("x"), var("y"), var("z")
    return boolean_cq(
        atom("E", x, y), atom("V", x, z), atom("V", y, z), atom("T", z)
    )


def hcoloring_instance(graph: UndirectedGraph) -> HColoringInstance:
    """Build ``D_G`` for a loop-free input graph ``G``."""
    if not graph.loop_free():
        raise ValueError("♯H-Coloring inputs are loop-free graphs")
    schema = hcoloring_schema()
    facts: list[Fact] = [fact("T", 1)]
    for node in graph.nodes:
        facts.append(fact("V", node, 0))
        facts.append(fact("V", node, 1))
    for edge in graph.edges:
        u, v = sorted(edge, key=repr)
        facts.append(fact("E", u, v))
    return HColoringInstance(
        graph=graph,
        database=Database(facts, schema=schema),
        constraints=hcoloring_constraints(schema),
        query=hcoloring_query(),
    )


def count_h_colorings(graph: UndirectedGraph) -> int:
    """``|hom(G, H)|`` by brute force (ground truth for the oracle identity)."""
    return graph.count_homomorphisms_to(H_GRAPH)


RRFreqOracle = Callable[[Database, tuple], Fraction]


def hom_count_via_oracle(
    graph: UndirectedGraph, oracle: RRFreqOracle
) -> int:
    """The ``HOM`` algorithm of Appendix B.1: ``3^{|V|} · (1 − r)``.

    ``oracle`` plays the role of the ``RRFreq(Σ, Q)`` oracle of the Turing
    reduction; with an exact oracle the output is exactly ``|hom(G, H)|``.
    """
    instance = hcoloring_instance(graph)
    ratio = oracle(instance.database, ())
    value = instance.repair_space_size() * (1 - Fraction(ratio))
    if value.denominator != 1:
        raise ValueError(
            "oracle returned a ratio incompatible with the 3^|V| repair space"
        )
    return int(value)


def repair_to_mapping(
    instance: HColoringInstance, repair: Database
) -> dict[object, object]:
    """The map ``V_G -> {0, 1, ?}`` a candidate repair encodes (proof of B.1)."""
    mapping: dict[object, object] = {}
    for node in instance.graph.nodes:
        keeps_zero = fact("V", node, 0) in repair
        keeps_one = fact("V", node, 1) in repair
        if keeps_zero and keeps_one:
            raise ValueError("not a repair: both V-facts of a node survive")
        if keeps_one:
            mapping[node] = 1
        elif keeps_zero:
            mapping[node] = 0
        else:
            mapping[node] = "?"
    return mapping


def is_h_homomorphism(graph: UndirectedGraph, mapping: dict) -> bool:
    """Whether a node map lands in ``H`` on every edge of ``G``."""
    return all(
        H_GRAPH.has_edge(mapping[u], mapping[v])
        for u in graph.nodes
        for v in graph.neighbours(u)
    )
