"""Adaptive sequential estimation with early stopping.

The fixed-budget path sizes its sample count from the *worst-case*
positivity lower bound (Lemmas 5.3 / 6.3 / E.3 / E.10 / D.8), so every
``(query, answer)`` pays for the hardest imaginable instance.  The
estimators here instead watch the samples as they arrive and stop as soon
as a *time-uniform* confidence sequence certifies the requested relative
accuracy — easy answers (large probabilities, small empirical variance)
finish in a small fraction of the worst-case budget, while hard ones
degrade gracefully to it.

Two anytime deviation bounds are maintained side by side and the tighter
one wins at every step:

* **empirical Bernstein** (Audibert–Munos–Szepesvári style) —
  ``|mean − μ| <= sqrt(2 V ln(3/δ_n) / n) + 3 ln(3/δ_n) / n`` with the
  empirical variance ``V``; sharp when the indicator variance is small
  (probabilities near 0 or 1);
* **Hoeffding** — ``|mean − μ| <= sqrt(ln(2/δ_n) / (2n))``; sharp near
  ``μ = 1/2`` where the variance term saturates.

Time-uniformity comes from a per-``n`` confidence budget
``δ_n = δ_seq / (n (n+1))`` whose sum telescopes to ``δ_seq``, so the
confidence sequence is valid *at the random stopping time* — the union
bound is over every sample count, not a single pre-committed one.

Guarantee accounting (:class:`SequentialEstimator`): the overall failure
probability splits as ``δ = δ/2 (confidence sequence) + δ/4 (zero
certificate) + δ/4 (fixed-budget fallback)``:

* stop via the confidence sequence when the radius drops to
  ``ε·mean/(1+ε)`` — then ``|mean − μ| <= ε·μ`` (the standard
  multiplicative-stop algebra);
* stop with a **certified zero** after ``⌈ln(4/δ)/p_lower⌉`` all-zero
  samples, exactly like the fixed path's zero detection;
* stop at the **fallback cap** ``chernoff_sample_size(ε, δ/4, p_lower)``
  and return the plain mean under the fixed-budget Chernoff guarantee.

So an adaptive run is never worse than ~the fixed-budget path (the cap is
the same Chernoff count at ``δ/4`` instead of ``δ``), and carries the same
(ε, δ) contract: relative error ``ε`` with probability ``1 − δ`` whenever
the true mean is zero or at least ``p_lower``.

``benchmarks/bench_e24_adaptive_vs_fixed.py`` measures the sample savings
against the fixed-budget path on the E18/E21 workloads; the engine layer
(:meth:`repro.engine.session.EstimationSession.estimate_adaptive` and
``batch_estimate(mode="adaptive")``) feeds these estimators from shared
sample pools, each reading its pool from position zero.

Only the zero certificate (``adaptive-zero``) sets ``certified_zero``: a
run stopped by the cap, with or without hits, certifies nothing about a
zero mean (an all-zero stream reaches the zero certificate before the
Chernoff cap, so only a user truncation can stop one at the cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .intervals import ConfidenceInterval
from .montecarlo import chernoff_sample_size


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of a sequential early-stopping estimation run.

    Field-compatible with :class:`~repro.approx.montecarlo.EstimateResult`
    (``estimate``, ``samples_used``, ``epsilon``, ``delta``, ``method``,
    ``certified_zero``) plus the anytime ``interval`` that justified
    stopping, so batch/CLI consumers can treat both result kinds uniformly.
    """

    estimate: float
    samples_used: int
    epsilon: float
    delta: float
    method: str
    interval: ConfidenceInterval
    certified_zero: bool = False


def _eb_from_log_term(
    n: int, variance: float, log_term: float, value_range: float = 1.0
) -> float:
    """Empirical-Bernstein radius from a precomputed ``ln(3/δ)`` value."""
    return (
        math.sqrt(2.0 * variance * log_term / n)
        + 3.0 * value_range * log_term / n
    )


def empirical_bernstein_radius(
    n: int, variance: float, delta: float, value_range: float = 1.0
) -> float:
    """Empirical-Bernstein deviation radius for ``n`` samples in ``[0, R]``.

    ``sqrt(2 V ln(3/δ) / n) + 3 R ln(3/δ) / n`` — a two-sided bound using
    the *empirical* variance ``V`` (Audibert, Munos & Szepesvári 2009).
    ``ln(3/δ)`` is computed as ``ln 3 − ln δ`` so subnormal δ (where
    ``3/δ`` overflows to ``inf``) still yields a finite radius.
    """
    if n <= 0:
        return float("inf")
    return _eb_from_log_term(
        n, variance, math.log(3.0) - math.log(delta), value_range
    )


def hoeffding_radius(n: int, delta: float, value_range: float = 1.0) -> float:
    """Two-sided Hoeffding deviation radius ``R·sqrt(ln(2/δ) / (2n))``.

    Like :func:`empirical_bernstein_radius`, the log term is a difference
    (``ln 2 − ln δ``) so it stays finite for subnormal δ.
    """
    if n <= 0:
        return float("inf")
    return value_range * math.sqrt(
        (math.log(2.0) - math.log(delta)) / (2.0 * n)
    )


def confidence_sequence_radius(
    n: int, variance: float, delta_sequence: float, value_range: float = 1.0
) -> float:
    """The anytime deviation radius at sample count ``n``.

    One formula shared by :meth:`SequentialEstimator.radius` and the
    calibration audit's optional-stopping replays
    (:mod:`repro.calibration`), so the audited arithmetic can never drift
    from the shipped estimator.  The per-``n`` budget is
    ``δ_n = δ_seq / (n (n+1))`` (telescoping to ``δ_seq``), split evenly
    between the empirical-Bernstein and Hoeffding bounds, whose minimum
    is returned.  ``ln(δ_n/2)`` is assembled additively in log space —
    ``δ_seq / (n (n+1))`` itself can underflow to an exact float zero for
    tiny δ (a ``ZeroDivisionError`` in the historical formulation) long
    before the *logarithm* of the budget leaves float range.
    """
    if n <= 0:
        return float("inf")
    log_delta_half = (
        math.log(delta_sequence) - math.log(n) - math.log(n + 1) - math.log(2.0)
    )
    return min(
        _eb_from_log_term(n, variance, math.log(3.0) - log_delta_half, value_range),
        value_range * math.sqrt((math.log(2.0) - log_delta_half) / (2.0 * n)),
    )


class SequentialEstimator:
    """Incremental (ε, δ) estimator over ``[0, 1]`` draws with early stopping.

    Feed samples one at a time with :meth:`offer`; once :attr:`decided` is
    true, :meth:`result` returns the :class:`AdaptiveResult`.  The consumer
    drives the sample stream — which is what lets the engine feed every
    request of a group from one shared
    :class:`~repro.engine.session.SamplePool` (see the module docstring
    for the stopping rules and the δ-budget split).

    ``p_lower`` (the paper's positivity bound) enables the zero certificate
    and the fixed-budget fallback cap; without it the estimator can run
    until ``max_samples`` (or forever on a zero stream — pass one of the
    two whenever the true mean may be 0).
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        p_lower: float | Fraction | None = None,
        max_samples: int | None = None,
    ):
        if not 0 < epsilon < 1:
            raise ValueError("adaptive estimation requires 0 < epsilon < 1")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if p_lower is not None and not 0 < p_lower <= 1:
            raise ValueError("p_lower must lie in (0, 1]")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.epsilon = epsilon
        self.delta = delta
        self.p_lower = None if p_lower is None else float(p_lower)
        self._n = 0
        self._sum = 0.0
        self._sum_squares = 0.0
        self._decided = False
        self._method = ""
        # δ-budget split: half to the anytime confidence sequence, a quarter
        # each to the zero certificate and the Chernoff fallback cap.
        self._delta_sequence = delta / 2.0
        if self.p_lower is not None:
            # ln(4/δ) as a difference: 4/δ overflows to inf for subnormal
            # δ, which used to turn the cap into an OverflowError.
            self._zero_cap = max(
                1, math.ceil((math.log(4.0) - math.log(delta)) / self.p_lower)
            )
            self._chernoff_cap = chernoff_sample_size(epsilon, delta / 4.0, self.p_lower)
        else:
            self._zero_cap = None
            self._chernoff_cap = None
        caps = [c for c in (self._chernoff_cap, max_samples) if c is not None]
        #: Hard ceiling on samples this estimator will ever consume (``None``
        #: only when neither ``p_lower`` nor ``max_samples`` was given).
        self.sample_cap = min(caps) if caps else None

    # -- stream state ----------------------------------------------------------------

    @property
    def samples_seen(self) -> int:
        """Number of samples consumed so far."""
        return self._n

    @property
    def decided(self) -> bool:
        """True once a stopping rule has fired; further offers are rejected."""
        return self._decided

    def mean(self) -> float:
        """The running sample mean (0.0 before any sample)."""
        return self._sum / self._n if self._n else 0.0

    def variance(self) -> float:
        """The running (biased) empirical variance."""
        if self._n == 0:
            return 0.0
        m = self.mean()
        return max(0.0, self._sum_squares / self._n - m * m)

    def radius(self) -> float:
        """Current anytime deviation radius: min(empirical-Bernstein, Hoeffding).

        Each bound gets half the per-``n`` budget ``δ_n = δ_seq / (n(n+1))``
        so their minimum is simultaneously valid for every ``n``; the
        arithmetic lives in :func:`confidence_sequence_radius` (shared
        with the calibration audit's optional-stopping replays).
        """
        return confidence_sequence_radius(
            self._n, self.variance(), self._delta_sequence
        )

    # -- the sequential test ---------------------------------------------------------

    def offer(self, value: float) -> bool:
        """Consume one ``[0, 1]`` draw; return :attr:`decided` afterwards."""
        if self._decided:
            raise RuntimeError("estimator already stopped; create a fresh one")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"draws must lie in [0, 1], got {value!r}")
        self._n += 1
        self._sum += value
        self._sum_squares += value * value
        mean = self.mean()
        # 1. Confidence-sequence stop: radius small relative to the mean.
        #    r <= ε·mean/(1+ε) and |mean − μ| <= r imply |mean − μ| <= ε·μ.
        if self._sum > 0.0:
            if self.radius() <= self.epsilon * mean / (1.0 + self.epsilon):
                self._decided, self._method = True, "adaptive-eb"
                return True
        # 2. Zero certificate: an all-zero run long enough to rule out
        #    μ >= p_lower at confidence 1 − δ/4.
        elif self._zero_cap is not None and self._n >= self._zero_cap:
            self._decided, self._method = True, "adaptive-zero"
            return True
        # 3. Fallback cap: the fixed-budget guarantee (or user truncation).
        if self.sample_cap is not None and self._n >= self.sample_cap:
            self._decided = True
            if self._chernoff_cap is not None and self._n >= self._chernoff_cap:
                self._method = "adaptive-chernoff-cap"
            else:
                self._method = "adaptive-truncated"
            return True
        return False

    def result(self) -> AdaptiveResult:
        """The stopped estimate; raises if no stopping rule has fired yet."""
        if not self._decided:
            raise RuntimeError("estimator has not stopped yet")
        mean = self.mean()
        # Only the zero *certificate* justifies a point interval at zero
        # (and the certified_zero flag); a user-truncated all-zero run
        # carries the honest anytime radius and certifies nothing.
        certified_zero = self._method == "adaptive-zero"
        radius = 0.0 if certified_zero else self.radius()
        return AdaptiveResult(
            estimate=mean,
            samples_used=self._n,
            epsilon=self.epsilon,
            delta=self.delta,
            method=self._method,
            interval=ConfidenceInterval(
                lower=max(0.0, mean - radius),
                upper=min(1.0, mean + radius),
                confidence=1.0 - self.delta,
                method="anytime-eb-hoeffding",
            ),
            certified_zero=certified_zero,
        )


def adaptive_estimate(
    draw: Callable[[], float],
    epsilon: float,
    delta: float,
    p_lower: float | Fraction | None = None,
    max_samples: int | None = None,
) -> AdaptiveResult:
    """Run a :class:`SequentialEstimator` to completion over ``draw()`` calls.

    The engine's adaptive executor runs it over a pool's hit flags: it
    pulls one sample at a time until a stopping rule fires and returns the
    ``(estimate, interval, samples_used)`` bundle.
    """
    estimator = SequentialEstimator(
        epsilon, delta, p_lower=p_lower, max_samples=max_samples
    )
    if estimator.sample_cap is None:
        raise ValueError(
            "unbounded adaptive run: give p_lower (enables the Chernoff "
            "fallback cap) or max_samples"
        )
    while not estimator.offer(draw()):
        pass
    return estimator.result()
