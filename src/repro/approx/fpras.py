"""FPRAS wrappers for uniform operational CQA.

Each positive theorem in the paper pairs a polynomial-time sampler with a
positivity lower bound; :func:`fpras_ocqa` reads the pair (and the scope
below) from the generator's sampling-law entry in
:data:`repro.engine.LAWS` and runs a Monte-Carlo estimate:

=====================  ====================  ======================================
Generator              Constraint class      Paper result
=====================  ====================  ======================================
``M_ur`` / ``M_ur,1``  primary keys          Theorem 5.1(2) / Theorem E.1(2)
``M_us`` / ``M_us,1``  primary keys          Theorem 6.1(2) / Theorem E.8(2)
``M_uo``               arbitrary keys        Theorem 7.1(2)
``M_uo,1``             arbitrary FDs         Theorem 7.5
=====================  ====================  ======================================

Combinations outside the table raise :class:`FPRASUnavailable` with the
paper's negative/open status, rather than silently returning an estimate
with no guarantee.  On primary keys ``M_us,1`` and ``M_uo,1`` have
``M_ur,1``'s law, so they share its bound (Lemma E.3) and sample plane.

Each call is a thin per-call view over a fresh
:class:`~repro.engine.session.EstimationSession`: ``rng`` supplies one
64-bit seed, and the estimate reads the seeded sample pool of the
generator's sampling law — the pool
:func:`~repro.engine.batch.batch_estimate` draws for that seed.  Callers
estimating many answers over one instance should hold a session (or use
``batch_estimate``) to share the sampling pass; results are bit-for-bit
identical either way under the same seed.
"""

from __future__ import annotations

import random

from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery
from .montecarlo import EstimateResult

__all__ = [
    "AUTO_FIXED_BUDGET",
    "FPRASUnavailable",
    "fixed_budget_estimate",
    "fpras_ocqa",
]

#: Above this fixed-N budget, ``method="auto"`` switches to the ``dklr``
#: stopping rule so the theoretical-but-huge bounds stay usable in practice.
AUTO_FIXED_BUDGET = 2_000_000


class FPRASUnavailable(RuntimeError):
    """No FPRAS is known (or one is ruled out) for the requested combination."""


def fpras_ocqa(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    answer: tuple = (),
    epsilon: float = 0.2,
    delta: float = 0.05,
    rng: random.Random | None = None,
    method: str = "auto",
    p_lower: float | None = None,
    max_samples: int | None = None,
) -> EstimateResult:
    """Approximate ``P_{M_Σ,Q}(D, c̄)`` with relative error ε, confidence 1-δ.

    ``method``:

    * ``"fixed"`` — Chernoff-sized sample using the positivity bound
      (``p_lower`` overrides the theoretical bound when given);
    * ``"dklr"`` — the Dagum–Karp–Luby–Ross stopping rule, whose cost adapts
      to the true probability (``max_samples`` truncates pathological runs);
    * ``"auto"`` — ``"fixed"`` when the implied budget is at most
      ``AUTO_FIXED_BUDGET``, else ``"dklr"``.
    """
    from ..engine.session import EstimationSession

    session = EstimationSession(database, constraints, generator)
    return session.estimate(
        query,
        answer,
        epsilon=epsilon,
        delta=delta,
        rng=rng,
        method=method,
        p_lower=p_lower,
        max_samples=max_samples,
    )


def fixed_budget_estimate(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    answer: tuple = (),
    samples: int = 10_000,
    rng: random.Random | None = None,
) -> EstimateResult:
    """Plain sample-mean with an explicit budget (for benches and studies).

    No (ε, δ) guarantee is attached — benches use this to chart accuracy
    versus budget against exact values.
    """
    from ..engine.session import EstimationSession

    session = EstimationSession(database, constraints, generator)
    return session.fixed_budget(query, answer, samples=samples, rng=rng)
