"""High-level operational-CQA API.

The entry points a downstream user works with: given a database, a set of
FDs, a uniform generator and a query, compute exact probabilities, FPRAS
estimates, or the full operational-consistent-answer table.  This is the
layer the examples and benches are written against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ..approx.fpras import fpras_ocqa
from ..approx.montecarlo import EstimateResult
from ..engine.session import EstimationSession
from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery
from ..exact.ocqa import exact_ocqa, exact_operational_consistent_answers


@dataclass(frozen=True)
class AnswerProbability:
    """One row of an operational-consistent-answer table."""

    answer: tuple
    probability: Fraction | float
    exact: bool


def ocqa_probability(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    answer: tuple = (),
    method: str = "exact",
    epsilon: float = 0.2,
    delta: float = 0.05,
    rng: random.Random | None = None,
) -> Fraction | EstimateResult:
    """``P_{M_Σ,Q}(D, c̄)`` — exact (``method="exact"``) or via the FPRAS.

    The exact route is exponential in the worst case (Theorems 5.1(1),
    6.1(1), 7.1(1)); the approximate route carries the (ε, δ) guarantee of
    the corresponding positive theorem, and raises
    :class:`~repro.approx.fpras.FPRASUnavailable` outside its scope.
    """
    if method == "exact":
        return exact_ocqa(database, constraints, generator, query, answer)
    if method == "approx":
        return fpras_ocqa(
            database,
            constraints,
            generator,
            query,
            answer,
            epsilon=epsilon,
            delta=delta,
            rng=rng,
        )
    raise ValueError(f"unknown method {method!r}; use 'exact' or 'approx'")


def operational_consistent_answers(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    method: str = "exact",
    epsilon: float = 0.2,
    delta: float = 0.05,
    rng: random.Random | None = None,
    max_samples: int | None = None,
) -> list[AnswerProbability]:
    """The operational consistent answers with non-zero probability.

    Candidate tuples come from evaluating ``Q`` over ``D`` (repairs are
    subsets of ``D``, so nothing outside ``Q(D)`` can be an answer).
    Rows are sorted by decreasing probability, then by answer.

    The approximate route scores all candidates against one shared sample
    pool (an :class:`~repro.engine.session.EstimationSession` pool seeded
    from ``rng``: packed survivor bitset rows, checked against each
    candidate's witnesses with column tests), so the whole table costs a
    single sampling pass; each row still carries its own (ε, δ)
    guarantee.  The pool retains its draws for replay, so when a
    tiny positivity bound pushes the estimator onto the adaptive stopping
    rule, pass ``max_samples`` to bound the pass (and the memory).
    """
    if method == "exact":
        table = exact_operational_consistent_answers(database, constraints, generator, query)
        rows = [
            AnswerProbability(answer=answer, probability=probability, exact=True)
            for answer, probability in table.items()
        ]
    elif method == "approx":
        session = EstimationSession(database, constraints, generator)
        pool = session.pool(rng)
        rows = []
        for candidate in sorted(query.answers(database), key=repr):
            result = session.estimate_pooled(
                pool,
                query,
                candidate,
                epsilon=epsilon,
                delta=delta,
                max_samples=max_samples,
            )
            if result.estimate > 0:
                rows.append(
                    AnswerProbability(
                        answer=candidate, probability=result.estimate, exact=False
                    )
                )
    else:
        raise ValueError(f"unknown method {method!r}; use 'exact' or 'approx'")
    return sorted(rows, key=lambda row: (-float(row.probability), repr(row.answer)))
