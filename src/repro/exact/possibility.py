"""Polynomial zero-tests: is ``P_{M_Σ,Q}(D, c̄) > 0`` at all?

Every positivity lower bound in the paper is conditional — "whenever the
value is positive".  The positivity condition itself is polynomial-time
checkable: ``P > 0`` (under any of the six uniform generators) iff some
candidate repair entails ``Q(c̄)``, iff there is a homomorphism ``h`` from
``Q`` into ``D`` with ``h(x̄) = c̄`` whose image ``h(Q)`` is conflict-free.

Why that suffices: a conflict-free image is an independent set of the
conflict graph, its per-component pieces extend to independent sets of the
components, and (Lemma 5.4 / its component-wise form) every such choice is
realized by some candidate repair — one reachable under every uniform
generator, since all complete sequences receive positive probability under
``M_us``/``M_uo`` and every repair keeps a canonical sequence under
``M_ur``.  For the singleton variants the extension must also keep each
non-trivial component non-empty (Lemma E.4), which holding a non-empty image
piece already guarantees — and components untouched by the image can keep
any single fact.

The FPRAS wrappers use this to certify zeros without spending samples.
"""

from __future__ import annotations

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.graphs import conflict_graph
from ..core.queries import ConjunctiveQuery, _bind_answer


def consistent_image_exists(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
) -> bool:
    """Whether some homomorphism with ``h(x̄) = c̄`` has ``h(Q) |= Σ``.

    Worst-case exponential in ``|Q|`` (query evaluation), polynomial in
    ``||D||`` — i.e. polynomial in data complexity, which is the paper's
    measure.
    """
    if len(answer) != len(query.answer_variables):
        return False
    fixed = _bind_answer(query.answer_variables, answer)
    if fixed is None:
        return False
    for homomorphism in query.homomorphisms(database, fixed=fixed):
        image = query.image(homomorphism)
        if image_is_consistent(image, constraints):
            return True
    return False


def answer_is_possible(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
) -> bool:
    """``P_{M_Σ,Q}(D, c̄) > 0`` for every uniform generator — the zero-test."""
    return consistent_image_exists(database, constraints, query, answer)


def image_is_consistent(image: frozenset[Fact], constraints: FDSet) -> bool:
    """Whether a fact set is pairwise conflict-free (``h(Q) |= Σ``).

    Shared by the zero-tests here and the estimation engine's witness
    cache, so the two can never drift apart.
    """
    facts = sorted(image, key=str)
    for index, f in enumerate(facts):
        for g in facts[index + 1 :]:
            if not constraints.pair_satisfies(f, g):
                return False
    return True


def witnessing_repair(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
) -> Database | None:
    """A candidate repair entailing ``Q(c̄)``, or ``None`` if impossible.

    Extends a conflict-free image to a full repair: keep the image, keep all
    conflict-free facts, and greedily extend each non-trivial component with
    compatible facts (maximality is not required of operational repairs, but
    the greedy extension produces a natural witness).
    """
    if len(answer) != len(query.answer_variables):
        return None
    fixed = _bind_answer(query.answer_variables, answer)
    if fixed is None:
        return None
    graph = conflict_graph(database, constraints)
    for homomorphism in query.homomorphisms(database, fixed=fixed):
        image = query.image(homomorphism)
        if not image <= database.facts:
            continue
        if not image_is_consistent(image, constraints):
            continue
        chosen = set(image) | set(graph.isolated_nodes())
        for candidate in database.sorted_facts():
            if candidate in chosen:
                continue
            if all(
                constraints.pair_satisfies(candidate, existing)
                for existing in chosen
            ):
                chosen.add(candidate)
        return Database(chosen, schema=database.schema)
    return None
