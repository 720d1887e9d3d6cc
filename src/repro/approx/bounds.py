"""Positivity lower bounds on the target probabilities.

Monte-Carlo FPRASes need the estimated quantity to be either zero or at
least ``1/poly(||D||)``; each positive result in the paper is paired with
such a bound:

* Lemma 5.3  — ``rrfreq  >= 1 / (2|D|)^{|Q|}``     (primary keys);
* Lemma 6.3  — ``srfreq  >= 1 / (2|D|)^{|Q|}``     (primary keys);
* Lemma E.3  — ``rrfreq¹ >= 1 / |D|^{|Q|}``        (primary keys);
* Lemma E.10 — ``srfreq¹ >= 1 / |D|^{|Q|}``        (primary keys);
* Lemma D.8  — ``P_{M_uo,1} >= 1 / (e|D|)^{|Q|}``  (arbitrary FDs);
* Prop. 7.3  — ``P_{M_uo} >= 1 / pol(|D|)``        (arbitrary keys), with the
  explicit (astronomically large, but polynomial) ``pol`` assembled in the
  proof of Lemma 7.4 / Appendix D.2;
* a local clock bound — ``P_{M_uo} >= Π_{n=1}^{|Q|Δ} n / (n + |Q|(n+1))``
  (arbitrary keys), ``Δ`` the conflict graph's maximum degree — which
  unlike Prop. 7.3's is large enough to size a sample.

All bounds are returned as exact :class:`~fractions.Fraction` values; ``|D|``
is the number of facts and ``|Q|`` the number of body atoms, matching the
proofs' final inequalities (the ``||·||`` encoding-size forms are weaker).
Proposition D.6's *upper* bound — the reason ``M_uo`` + FDs has no
Monte-Carlo FPRAS — is also provided.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, nextafter

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery

#: A rational upper bound on Euler's number; dividing by it keeps the
#: resulting expression a valid *lower* bound.
E_UPPER = Fraction(2718281829, 1_000_000_000)


def float_at_most(value: Fraction) -> float:
    """The largest float not above ``value``, for casting a lower bound.

    ``float(value)`` rounds to nearest, so it can exceed ``value`` by one
    unit in the last place, and a Chernoff ``p_lower`` must never exceed
    the probability it bounds (an exact survival bound *equals* it).
    """
    result = float(value)
    return nextafter(result, 0.0) if result > value else result


def rrfreq_lower_bound(database: Database, query: ConjunctiveQuery) -> Fraction:
    """Lemma 5.3: ``1 / (2|D|)^{|Q|}`` (when ``rrfreq > 0``)."""
    return Fraction(1, (2 * max(len(database), 1)) ** query.atom_count())


def srfreq_lower_bound(database: Database, query: ConjunctiveQuery) -> Fraction:
    """Lemma 6.3: ``1 / (2|D|)^{|Q|}`` (when ``srfreq > 0``)."""
    return rrfreq_lower_bound(database, query)


def singleton_frequency_lower_bound(
    database: Database, query: ConjunctiveQuery
) -> Fraction:
    """Lemmas E.3 / E.10: ``1 / |D|^{|Q|}`` for ``rrfreq¹`` and ``srfreq¹``."""
    return Fraction(1, max(len(database), 1) ** query.atom_count())


def uo_singleton_fd_lower_bound(
    database: Database, query: ConjunctiveQuery
) -> Fraction:
    """Lemma D.8: ``P_{M_uo,1,Q} >= (1/e)^{|Q|} / |D|^{|Q|}`` for any FDs."""
    atoms = query.atom_count()
    size = max(len(database), 1)
    return (1 / E_UPPER) ** atoms * Fraction(1, size**atoms)


def uo_keys_lower_bound(
    database: Database, constraints: FDSet, query: ConjunctiveQuery
) -> Fraction:
    """Proposition 7.3's explicit polynomial bound for ``M_uo`` over keys.

    Assembled from the Appendix D.2 proof:

    ``pol''(|D|) = ((q·k + q + 1)^2)! · e^{5qk} · (√|D| + 5qk)^{5qk}``
    ``pol'(|D|)  = (e·q)^{q+2} · (e(|D|+q-1))^q · (e(|D|-1))^q``
    ``P >= 1 / (1 + pol''·pol')``

    with ``q = |Q|`` and ``k = |Σ|``.  The value is polynomial in ``|D|`` but
    far too small to size a sample; it exists to state the theorem faithfully
    and to be sanity-checked against exact probabilities on small inputs.
    """
    q = query.atom_count()
    k = max(len(constraints), 1)
    size = max(len(database), 2)
    sqrt_upper = isqrt(size) + 1  # integer upper bound on sqrt(|D|)
    pol_double_prime = (
        factorial((q * k + q + 1) ** 2)
        * (E_UPPER ** (5 * q * k))
        * Fraction(sqrt_upper + 5 * q * k) ** (5 * q * k)
    )
    pol_prime = (
        (E_UPPER * q) ** (q + 2)
        * (E_UPPER * (size + q - 1)) ** q
        * (E_UPPER * max(size - 1, 1)) ** q
    )
    return 1 / (1 + pol_double_prime * pol_prime)


def uo_keys_local_lower_bound(atoms: int, max_degree: int) -> Fraction:
    """``Π_{n=1}^{q·Δ} n / (n + q(n+1))`` for ``M_uo`` over keys.

    ``q = atoms`` (``|Q|``) and ``Δ = max_degree``, the conflict graph's
    maximum degree.  A witness ``w`` (at most ``q`` facts) survives the
    walk when every outside neighbour leaves before an operation hits
    ``w``.  While ``n`` neighbours are live, the operations that destroy
    ``w`` have total rate at most ``|w|(n+1)``, and each neighbour's own
    singleton removal fires at rate 1, so some neighbour leaves first
    with probability at least ``n / (n + |w|(n+1))``.  At most ``q·Δ``
    neighbours must leave, every factor is below 1, and each shrinks as
    ``|w|`` grows, so the product over ``n = 1 .. q·Δ`` at ``|w| = q``
    bounds every witness.  For one fact of degree ``d`` it is ``Π k/(2k+1)``,
    the exact survival probability of a star's centre.
    """
    bound = Fraction(1)
    for n in range(1, atoms * max_degree + 1):
        bound *= Fraction(n, n + atoms * (n + 1))
    return bound


def pathological_upper_bound(n: int) -> Fraction:
    """Proposition D.6: ``P_{M_uo,Q}(D_n) <= 1 / 2^{n-1}`` for the bad family."""
    if n < 1:
        raise ValueError("the family D_n is defined for n >= 1")
    return Fraction(1, 2 ** (n - 1))

