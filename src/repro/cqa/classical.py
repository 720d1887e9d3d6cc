"""Classical (declarative) CQA baseline.

The framework the paper positions against (Arenas–Bertossi–Chomicki [1]):
a *subset repair* is a maximal consistent subset of ``D`` — equivalently, a
maximal independent set of the conflict graph — and the *consistent answers*
are those entailed by every repair.  The refined notion used by the
approximate-CQA line ([3, 4, 19]) is the *relative frequency*: the fraction
of subset repairs entailing an answer.  Both are implemented exactly here,
exponential in the worst case, for the operational-vs-classical comparison
experiments (E16).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.graphs import conflict_graph
from ..core.queries import ConjunctiveQuery


def subset_repairs(database: Database, constraints: FDSet) -> Iterator[Database]:
    """All classical subset repairs (maximal consistent subsets of ``D``).

    Enumerated component-wise over the conflict graph: conflict-free facts
    always survive, and each non-trivial component contributes one of its
    maximal independent sets.
    """
    graph = conflict_graph(database, constraints)
    isolated = graph.isolated_nodes()
    per_component = [
        list(graph.subgraph(component).maximal_independent_sets())
        for component in graph.nontrivial_components()
    ]
    for selection in product(*per_component):
        chosen = set(isolated)
        for independent in selection:
            chosen |= independent
        yield Database(chosen, schema=database.schema)


def count_subset_repairs(database: Database, constraints: FDSet) -> int:
    """``|SRep(D, Σ)|`` as the product of per-component maximal-IS counts."""
    graph = conflict_graph(database, constraints)
    total = 1
    for component in graph.nontrivial_components():
        total *= sum(1 for _ in graph.subgraph(component).maximal_independent_sets())
    return total


def is_consistent_answer(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
) -> bool:
    """Classical certain answer: entailed by *every* subset repair."""
    return all(
        query.entails(repair, answer) for repair in subset_repairs(database, constraints)
    )


def consistent_answers(
    database: Database, constraints: FDSet, query: ConjunctiveQuery
) -> frozenset[tuple]:
    """All certain answers to ``query`` over the subset repairs."""
    repairs = list(subset_repairs(database, constraints))
    if not repairs:
        return frozenset()
    certain = set(query.answers(repairs[0]))
    for repair in repairs[1:]:
        certain &= query.answers(repair)
        if not certain:
            break
    return frozenset(certain)


def classical_relative_frequency(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
) -> Fraction:
    """Fraction of subset repairs entailing ``Q(c̄)`` (the [3, 4] notion)."""
    total = 0
    entailing = 0
    for repair in subset_repairs(database, constraints):
        total += 1
        if query.entails(repair, answer):
            entailing += 1
    if total == 0:
        raise ValueError("a database always has at least one subset repair")
    return Fraction(entailing, total)
