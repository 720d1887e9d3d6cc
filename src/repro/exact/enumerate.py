"""Enumeration of repairing sequences and candidate repairs.

Two routes to ``CORep(D, Σ)``:

* brute force over the sequence tree (tiny instances, ground truth in tests);
* the conflict-graph route: Lemma 5.4 (``|CORep| = |IS(CG)|`` for
  non-trivially connected databases) generalizes component-wise, because
  operations act within conflict-graph components and interleave freely
  across them.  Facts in no conflict survive every repair; each non-trivial
  component independently contributes any of its independent sets (any
  *non-empty* independent set in the singleton-operation case, Lemma E.4).
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterator

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.graphs import conflict_graph
from ..core.operations import justified_operations
from ..core.sequences import EMPTY_SEQUENCE, RepairingSequence


def repairing_sequences(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> Iterator[tuple[RepairingSequence, Database]]:
    """All of ``RS(D, Σ)`` with result states, by DFS (exponential; tests only)."""

    def walk(sequence: RepairingSequence, state: Database) -> Iterator:
        yield sequence, state
        for operation in sorted(
            justified_operations(state, constraints, singleton_only), key=lambda o: o.lex_key()
        ):
            yield from walk(sequence.extend(operation), operation.apply(state))

    yield from walk(EMPTY_SEQUENCE, database)


def complete_sequences(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> Iterator[tuple[RepairingSequence, Database]]:
    """``CRS(D, Σ)`` (or ``CRS¹``) with results, by DFS (exponential)."""
    for sequence, state in repairing_sequences(database, constraints, singleton_only):
        if constraints.satisfied_by(state):
            yield sequence, state


def candidate_repairs_bruteforce(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> frozenset[Database]:
    """``CORep`` via full sequence enumeration (ground truth for tests)."""
    return frozenset(state for _, state in complete_sequences(database, constraints, singleton_only))


def candidate_repairs(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> Iterator[Database]:
    """Enumerate ``CORep(D, Σ)`` through the conflict graph, component-wise.

    Every repair is the union of the conflict-free facts with one independent
    set per non-trivial component (non-empty per component when
    ``singleton_only``).  The number of repairs is the product of the
    per-component counts, so enumeration is output-sensitive.
    """
    graph = conflict_graph(database, constraints)
    isolated = graph.isolated_nodes()
    components = graph.nontrivial_components()
    per_component = []
    for component in components:
        subgraph = graph.subgraph(component)
        choices = [
            independent
            for independent in subgraph.independent_sets()
            if independent or not singleton_only
        ]
        per_component.append(choices)
    for selection in product(*per_component):
        chosen = set(isolated)
        for independent in selection:
            chosen |= independent
        yield Database(chosen, schema=database.schema)


def count_candidate_repairs(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> int:
    """``|CORep(D, Σ)|`` (or ``|CORep¹|``) without enumeration.

    Component-wise product of independent-set counts; for a non-trivially
    connected database this is exactly Lemma 5.4 (resp. Lemma E.4).
    """
    graph = conflict_graph(database, constraints)
    factors = []
    for component in graph.nontrivial_components():
        subgraph = graph.subgraph(component)
        count = subgraph.count_independent_sets()
        factors.append(count - 1 if singleton_only else count)
    return prod(factors)
