"""Exact OCQA: ``P_{M_Σ,Q}(D, c̄)`` for the six uniform generators and more.

Dispatches each generator to its most efficient exact engine:

* ``M_ur`` / ``M_ur,1``  → repair relative frequency (Section 5 restatement);
* ``M_us`` / ``M_us,1``  → sequence relative frequency (Section 6 restatement);
* ``M_uo`` / ``M_uo,1`` and every other
  :class:`~repro.chains.generators.LocalChainGenerator` → the state-space
  DP over the local chain (no frequency restatement exists — Section 7).

A generic fallback materializes the explicit chain for any other
:class:`~repro.chains.generators.MarkovChainGenerator`, honouring the paper's
framing that ``M_Σ`` may be an arbitrary function.
"""

from __future__ import annotations

from fractions import Fraction

from ..chains.generators import (
    LocalChainGenerator,
    MarkovChainGenerator,
    UniformRepairs,
    UniformSequences,
)
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery
from .frequencies import rrfreq, srfreq
from .state_space import StateSpaceEngine


def exact_ocqa(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    answer: tuple = (),
    *,
    engine: StateSpaceEngine | None = None,
) -> Fraction:
    """Exact ``P_{M_Σ,Q}(D, c̄)`` for ``generator``.

    For ``M_ur`` the value equals ``rrfreq`` *provided the canonical
    ordering covers every repair exactly once*, which holds by
    Proposition A.2 regardless of the ordering — so the ordering parameter
    of :class:`UniformRepairs` does not influence the result.  ``engine``
    (a :class:`StateSpaceEngine` over ``(D, Σ)``) lets local generators
    reuse one state space across calls.
    """
    if isinstance(generator, UniformRepairs):
        return rrfreq(
            database, constraints, query, answer, singleton_only=generator.singleton_only
        )
    if isinstance(generator, UniformSequences):
        return srfreq(
            database, constraints, query, answer, singleton_only=generator.singleton_only
        )
    if isinstance(generator, LocalChainGenerator):
        # Section 7's locality argument does not depend on uniformity.
        if engine is None:
            engine = StateSpaceEngine(database, constraints)
        return engine.answer_probability(
            generator, lambda repair: query.entails(repair, answer)
        )
    # Arbitrary generator: materialize the explicit chain (tiny instances).
    chain = generator.chain(database, constraints)
    return chain.answer_probability(query, answer)


def exact_operational_consistent_answers(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
) -> dict[tuple, Fraction]:
    """All non-zero ``(c̄, P_{M_Σ,Q}(D, c̄))`` pairs.

    Candidate answer tuples are harvested from ``Q`` evaluated over the
    *original* database — every repair is a subset of ``D``, so no repair can
    produce an answer that ``D`` itself does not.  Local generators share
    one :class:`StateSpaceEngine`, so the state space is explored once.
    """
    candidates = query.answers(database)
    engine = (
        StateSpaceEngine(database, constraints)
        if isinstance(generator, LocalChainGenerator)
        else None
    )
    answers: dict[tuple, Fraction] = {}
    for candidate in sorted(candidates, key=repr):
        probability = exact_ocqa(
            database, constraints, generator, query, candidate, engine=engine
        )
        if probability > 0:
            answers[candidate] = probability
    return answers
