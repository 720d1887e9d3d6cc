"""Statistical metrics for the calibration audit plane.

Three measurements, one per claim the estimators make:

* **miscoverage** — the fraction of independent replications whose
  estimate broke the (ε, δ) relative-error contract, wrapped in an exact
  Clopper–Pearson confidence band so "observed 1.1·δ at 200 replications"
  is read as noise while "observed 3·δ at 2000" is read as a bug;
* **anytime validity** — the confidence sequence of
  :class:`~repro.approx.adaptive.SequentialEstimator` replayed under an
  *adversarial optional stopper* that halts the moment the truth ever
  leaves the interval: the sup-over-``n`` failure rate must respect the
  sequence's δ/2 budget, not just the fixed-``n`` one;
* **sharpness** — the stopped interval half-width against the fixed-``n``
  Hoeffding/Bernstein oracle floor, quantifying the price paid for
  anytime validity (a ratio ≥ 1; large drift signals a loose radius).

The Clopper–Pearson band here is the float log-space twin of the exact
:func:`~repro.approx.intervals.clopper_pearson_interval`: the
Fraction-based original is exact but evaluates big-integer powers with
``n · precision`` digits, which at audit scale (``n`` in the thousands,
called per cell) is minutes of bignum arithmetic for bits the audit never
reads.  The float version bisects the binomial tail computed through
``lgamma`` and is cross-checked against the exact one in
``tests/test_calibration.py``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..approx.adaptive import confidence_sequence_radius, hoeffding_radius

__all__ = [
    "MiscoverageSummary",
    "SharpnessSummary",
    "anytime_violation_audit",
    "clopper_pearson_bounds",
    "miscoverage_summary",
    "relative_error_violated",
    "replication_seed",
    "sharpness_summary",
]


def replication_seed(base_seed: int, cell: str, index: int) -> int:
    """A decorrelated 63-bit seed for replication ``index`` of ``cell``.

    Seeds are derived by hashing ``base_seed:cell:index`` so that (a) every
    replication is an independent stream, (b) cells never share seeds by
    accident (consecutive integers would collide across cells), and
    (c) the whole audit replays bit-for-bit from one ``base_seed``.
    """
    payload = f"{base_seed}:{cell}:{index}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def relative_error_violated(estimate: float, truth: float, epsilon: float) -> bool:
    """Did this estimate break the (ε, δ) relative-error contract?

    For a non-zero truth the event is ``|est − truth| > ε·truth``; for a
    zero truth the contract promises an *exact* zero (the certificate
    path), so any non-zero estimate counts.
    """
    if truth == 0.0:
        return estimate != 0.0
    return abs(estimate - truth) > epsilon * truth


# -- Clopper–Pearson in float log space ------------------------------------------------


def _log_binom_tail(n: int, k: int, p: float) -> float:
    """``ln P(X <= k)`` for ``X ~ Binomial(n, p)`` via lgamma term sums."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 0.0 if k >= n else -math.inf
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n_fact = math.lgamma(n + 1)
    terms = [
        log_n_fact
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * log_p
        + (n - i) * log_q
        for i in range(k + 1)
    ]
    peak = max(terms)
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def _bisect_tail(n: int, k: int, log_target: float) -> float:
    """The ``p`` with ``ln P(Binomial(n, p) <= k) = log_target``.

    The lower tail is strictly decreasing in ``p``, so plain bisection
    converges; ~60 halvings pins ``p`` to a float ulp's neighbourhood,
    which is far below the Monte-Carlo noise the band is there to absorb.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _log_binom_tail(n, k, mid) > log_target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def clopper_pearson_bounds(
    failures: int, replications: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Exact two-sided binomial confidence bounds on a failure rate.

    Float log-space evaluation of the same band as
    :func:`repro.approx.clopper_pearson_interval` (which returns exact
    rationals but at bignum cost); agreement is pinned by a tier-1 test.
    """
    if replications <= 0:
        raise ValueError("replications must be positive")
    if not 0 <= failures <= replications:
        raise ValueError("failures must lie in [0, replications]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    alpha = 1.0 - confidence
    log_half_alpha = math.log(alpha / 2.0)
    if failures == 0:
        lower = 0.0
    else:
        # P(X >= failures; p) = α/2  ⇔  P(X <= failures-1; p) = 1 − α/2.
        lower = _bisect_tail(replications, failures - 1, math.log1p(-alpha / 2.0))
    if failures == replications:
        upper = 1.0
    else:
        upper = _bisect_tail(replications, failures, log_half_alpha)
    return lower, upper


@dataclass(frozen=True)
class MiscoverageSummary:
    """Observed contract failures against a nominal δ, with a CP band."""

    replications: int
    failures: int
    nominal_delta: float
    confidence: float
    lower: float
    upper: float

    @property
    def rate(self) -> float:
        """The raw observed miscoverage fraction."""
        return self.failures / self.replications

    @property
    def passed(self) -> bool:
        """True unless the band *excludes* the nominal δ from above.

        ``lower > δ`` means even the most charitable rate consistent with
        the data (at the band's confidence) breaks the contract — the
        audit's definition of coverage drift.  Observed rates above δ with
        a band still touching it are expected sampling noise.
        """
        return self.lower <= self.nominal_delta


def miscoverage_summary(
    failures: int,
    replications: int,
    nominal_delta: float,
    confidence: float = 0.99,
) -> MiscoverageSummary:
    """Wrap a failure count in its Clopper–Pearson verdict."""
    lower, upper = clopper_pearson_bounds(failures, replications, confidence)
    return MiscoverageSummary(
        replications=replications,
        failures=failures,
        nominal_delta=nominal_delta,
        confidence=confidence,
        lower=lower,
        upper=upper,
    )


# -- anytime validity under adversarial optional stopping ------------------------------


def anytime_violation_audit(
    truth: float,
    delta: float,
    replications: int,
    horizon: int,
    base_seed: int = 0,
    cell: str = "anytime",
    confidence: float = 0.99,
) -> MiscoverageSummary:
    """Replay the confidence sequence against an adversarial stopper.

    Draws i.i.d. ``Bernoulli(truth)`` streams and checks, at *every*
    prefix length up to ``horizon``, whether the truth left the anytime
    interval ``mean ± confidence_sequence_radius(n, V, δ/2)`` — the
    sup-over-``n`` event an optional stopper could exploit.  The violation
    rate is judged against the sequence's δ/2 budget (the split
    :class:`~repro.approx.adaptive.SequentialEstimator` allocates it), not
    the full δ: a sequence that only holds at a lucky fixed ``n`` fails
    here even if a fixed-``n`` audit would pass it.

    The radius arithmetic is the shipped
    :func:`~repro.approx.adaptive.confidence_sequence_radius` itself, so a
    regression in the estimator's bound shows up as drift here without any
    reimplementation skew.
    """
    if not 0.0 <= truth <= 1.0:
        raise ValueError("truth must lie in [0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    delta_sequence = delta / 2.0
    violations = 0
    for index in range(replications):
        rng = random.Random(replication_seed(base_seed, f"{cell}:{truth}", index))
        total = 0.0
        for n in range(1, horizon + 1):
            total += 1.0 if rng.random() < truth else 0.0
            mean = total / n
            variance = max(0.0, mean - mean * mean)
            if abs(mean - truth) > confidence_sequence_radius(
                n, variance, delta_sequence
            ):
                violations += 1
                break
    return miscoverage_summary(violations, replications, delta_sequence, confidence)


# -- sharpness -------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessSummary:
    """Stopped interval half-widths against the fixed-``n`` oracle floor."""

    replications: int
    mean_half_width: float
    mean_samples: float
    mean_floor_ratio: float


def sharpness_summary(
    records: Sequence[tuple[float, int, float]] | Iterable[tuple[float, int, float]],
    delta: float,
) -> SharpnessSummary | None:
    """Summarize ``(half_width, samples, variance)`` triples from stopped runs.

    The floor for each run is the *fixed-n* Hoeffding radius at the full
    δ and the run's own sample count — what an oracle told the exact
    stopping time in advance could have certified.  The anytime sequence
    pays a union bound over all ``n`` (and runs at δ/2), so the ratio
    exceeds 1; its magnitude is the audit's sharpness metric, and sudden
    growth flags a loosened radius.  Zero-certificate runs report a zero
    half-width and are excluded from the ratio (their floor is the
    certificate, not a deviation bound).
    """
    materialized = [tuple(record) for record in records]
    if not materialized:
        return None
    ratios = []
    for half_width, samples, _variance in materialized:
        if half_width == 0.0 or samples <= 0:
            continue
        floor = hoeffding_radius(samples, delta)
        if floor > 0.0:
            ratios.append(half_width / floor)
    return SharpnessSummary(
        replications=len(materialized),
        mean_half_width=(
            sum(h for h, _, _ in materialized) / len(materialized)
        ),
        mean_samples=(
            sum(n for _, n, _ in materialized) / len(materialized)
        ),
        mean_floor_ratio=(sum(ratios) / len(ratios)) if ratios else 1.0,
    )
