"""Monte-Carlo estimation primitives.

Two estimators over i.i.d. ``[0, 1]`` draws (here: Bernoulli indicators of
"the sampled repair entails the answer"):

* :func:`fixed_sample_estimate` — sample a precomputed ``N`` and average.
  With ``N = ⌈3 ln(2/δ) / (ε² p_min)⌉`` (multiplicative Chernoff) the mean
  is an ``(ε, δ)`` relative approximation whenever the true mean is either 0
  or at least ``p_min`` — exactly the situation the paper's lower-bound
  lemmas establish.
* :func:`stopping_rule_estimate` — the Dagum–Karp–Luby–Ross optimal
  stopping rule (the paper's reference [8]): sample until the running sum
  reaches ``Υ₁ = 1 + (1+ε)·4(e−2)ln(2/δ)/ε²`` and return ``Υ₁/N``.  Its
  expected cost adapts to the (unknown) true mean instead of the worst-case
  lower bound.

Zero detection: if the true mean is 0 or ``>= p_min``, then after
``⌈ln(1/δ)/p_min⌉`` all-zero samples the value is 0 with confidence
``1 − δ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a Monte-Carlo estimation run."""

    estimate: float
    samples_used: int
    epsilon: float
    delta: float
    method: str
    certified_zero: bool = False


def chernoff_sample_size(epsilon: float, delta: float, p_lower: float) -> int:
    """``N`` making the sample mean an (ε, δ) relative approximation.

    The standard multiplicative-Chernoff count ``3 ln(2/δ) / (ε² p_lower)``
    for means known to be at least ``p_lower`` when non-zero; the bound
    holds for ``0 < ε < 1`` only.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < p_lower <= 1:
        raise ValueError("p_lower must lie in (0, 1]")
    # ln(2/δ) as a difference: 2/δ overflows to inf for subnormal δ, and
    # ceil(inf) is an OverflowError rather than a (huge) budget.
    log_term = math.log(2.0) - math.log(delta)
    return max(1, math.ceil(3.0 * log_term / (epsilon**2 * p_lower)))


def zero_detection_sample_size(delta: float, p_lower: float) -> int:
    """All-zero runs of this length certify a zero mean with confidence 1-δ."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < p_lower <= 1:
        raise ValueError("p_lower must lie in (0, 1]")
    return max(1, math.ceil(-math.log(delta) / p_lower))


def fixed_estimate_from_total(
    total: float, n: int, epsilon: float, delta: float
) -> EstimateResult:
    """The fixed-Chernoff result for a known sample total.

    The one constructor of ``"fixed-chernoff"`` results: the streaming
    loop below and the engine's batched vector plane (which counts hits
    with one array reduction) both build through it, so the method label,
    the estimate formula, and the zero-certificate semantics can never
    drift between planes.
    """
    return EstimateResult(
        estimate=total / n,
        samples_used=n,
        epsilon=epsilon,
        delta=delta,
        method="fixed-chernoff",
        certified_zero=(total == 0),
    )


def fixed_sample_estimate(
    draw: Callable[[], float],
    epsilon: float,
    delta: float,
    p_lower: float,
) -> EstimateResult:
    """Average ``chernoff_sample_size`` draws of ``draw()``."""
    n = chernoff_sample_size(epsilon, delta, p_lower)
    total = 0.0
    for _ in range(n):
        total += draw()
    return fixed_estimate_from_total(total, n, epsilon, delta)


def stopping_rule_estimate(
    draw: Callable[[], float],
    epsilon: float,
    delta: float,
    max_samples: int | None = None,
) -> EstimateResult:
    """Dagum–Karp–Luby–Ross stopping rule (their Stopping Rule Algorithm).

    Terminates once the running sum reaches ``Υ₁``; with ``max_samples`` set,
    a truncated run returns the plain sample mean (0 for an all-zero run)
    as ``dklr-truncated``.  The caller chose the truncation, so the (ε, δ)
    guarantee is theirs to interpret, and a truncated zero is never
    ``certified_zero``: no positivity bound sized the run.
    """
    if not 0 < epsilon < 1:
        raise ValueError("the stopping rule requires 0 < epsilon < 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if max_samples is not None and max_samples < 1:
        raise ValueError("max_samples must be positive")
    upsilon = 4.0 * (math.e - 2.0) * (math.log(2.0) - math.log(delta)) / (epsilon**2)
    threshold = 1.0 + (1.0 + epsilon) * upsilon
    total = 0.0
    n = 0
    while total < threshold:
        if max_samples is not None and n >= max_samples:
            estimate = total / n if n else 0.0
            return EstimateResult(
                estimate=estimate,
                samples_used=n,
                epsilon=epsilon,
                delta=delta,
                method="dklr-truncated",
            )
        total += draw()
        n += 1
    return EstimateResult(
        estimate=threshold / n,
        samples_used=n,
        epsilon=epsilon,
        delta=delta,
        method="dklr",
    )


def bernoulli_stream(
    predicate: Callable[[], bool],
) -> Callable[[], float]:
    """Adapt a boolean sampler to the ``draw() -> float`` interface."""

    def draw() -> float:
        return 1.0 if predicate() else 0.0

    return draw


def empirical_mean(values: Iterator[float] | list[float]) -> float:
    """Plain average (used by benches comparing fixed sample budgets)."""
    materialized = list(values)
    if not materialized:
        raise ValueError("cannot average zero samples")
    return sum(materialized) / len(materialized)


def hoeffding_sample_size(epsilon_additive: float, delta: float) -> int:
    """Samples for an *additive* ε guarantee (the first step in B.2's proof)."""
    if not 0 < epsilon_additive:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(2.0) - math.log(delta)
    return max(1, math.ceil(log_term / (2.0 * epsilon_additive**2)))


def additive_estimate(
    draw: Callable[[], float],
    epsilon_additive: float,
    delta: float,
) -> EstimateResult:
    """Monte-Carlo mean with additive error (the weaker guarantee of B.2)."""
    n = hoeffding_sample_size(epsilon_additive, delta)
    total = sum(draw() for _ in range(n))
    return EstimateResult(
        estimate=total / n,
        samples_used=n,
        epsilon=epsilon_additive,
        delta=delta,
        method="additive-hoeffding",
        certified_zero=(total == 0.0),
    )
