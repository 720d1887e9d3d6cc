"""Trust-weighted operations: the introduction's data-integration chain.

The paper motivates operational CQA with source trust: facts arriving from
a source trusted with probability ``t`` should be deleted with probability
``1 − t``.  For the two-fact example (both sources 50% reliable) the intro
derives: remove both facts with probability ``0.5 · 0.5 = 0.25``, and each
single fact with probability ``(1 − 0.25) / 2 = 0.375``.

:class:`TrustWeightedOperations` generalizes this to arbitrary instances as
a *local* generator.  For each currently violating pair ``{f, g}``:

* ``-{f, g}`` gets the pair's mass ``(1 − t_f)(1 − t_g)`` (distrust both);
* the remaining mass ``1 − (1 − t_f)(1 − t_g)`` is split between ``-f`` and
  ``-g`` proportionally to ``(1 − t_f)·t_g`` and ``t_f·(1 − t_g)`` (delete
  the fact you distrust, keep the one you trust) — uniformly when both
  products vanish.

Per-pair masses sum to 1, so averaging over the violating pairs yields a
probability distribution over the justified operations.  With all trusts at
1/2 every pair contributes exactly the intro's 0.25 / 0.375 / 0.375 split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.operations import Operation, justified_operations
from ..core.violations import violating_fact_pairs
from .generators import LocalChainGenerator

Trust = Fraction


@dataclass(frozen=True)
class TrustWeightedOperations(LocalChainGenerator):
    """A local chain whose operation probabilities encode source trust.

    ``trust`` maps facts to trust values in ``[0, 1]`` (as Fractions for
    exactness); unmapped facts get ``default_trust``.  Use
    :meth:`with_trust` to construct from a plain mapping.
    """

    trust_items: tuple[tuple[Fact, Fraction], ...] = ()
    default_trust: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        for value in (*(value for _, value in self.trust_items), self.default_trust):
            if not 0 <= value <= 1:
                raise ValueError(f"trust values must lie in [0, 1], got {value}")

    @classmethod
    def with_trust(
        cls,
        trust: Mapping[Fact, Fraction | float],
        default_trust: Fraction | float = Fraction(1, 2),
        singleton_only: bool = False,
    ) -> "TrustWeightedOperations":
        items = tuple(
            sorted(
                ((f, _as_fraction(value)) for f, value in trust.items()),
                key=lambda item: str(item[0]),
            )
        )
        return cls(
            singleton_only=singleton_only,
            trust_items=items,
            default_trust=_as_fraction(default_trust),
        )

    @property
    def base_name(self) -> str:
        return "M_trust"

    def trust_of(self, f: Fact) -> Fraction:
        for candidate, value in self.trust_items:
            if candidate == f:
                return value
        return self.default_trust

    def operation_distribution(
        self, state: Database, constraints: FDSet
    ) -> dict[Operation, Fraction]:
        pairs = sorted(violating_fact_pairs(state, constraints), key=str)
        # Cover the *full* operation space (Definition 3.5 requires every
        # justified operation as a child); singleton variants keep pair
        # removals at probability zero and fold their mass into the singles.
        operations = justified_operations(state, constraints)
        weights: dict[Operation, Fraction] = {op: Fraction(0) for op in operations}
        if not pairs:
            return weights
        share = Fraction(1, len(pairs))
        for pair in pairs:
            f, g = sorted(pair, key=str)
            for operation, mass in self._pair_masses(f, g).items():
                if self.singleton_only and operation.is_pair:
                    weights[Operation(frozenset((f,)))] += share * mass / 2
                    weights[Operation(frozenset((g,)))] += share * mass / 2
                else:
                    weights[operation] += share * mass
        return weights

    def _pair_masses(self, f: Fact, g: Fact) -> dict[Operation, Fraction]:
        """The 0.25 / 0.375 / 0.375 split, generalized to arbitrary trusts."""
        distrust_f = 1 - self.trust_of(f)
        distrust_g = 1 - self.trust_of(g)
        both = distrust_f * distrust_g
        remaining = 1 - both
        weight_f = distrust_f * self.trust_of(g)
        weight_g = self.trust_of(f) * distrust_g
        total = weight_f + weight_g
        if total == 0:
            single_f = single_g = remaining / 2
        else:
            single_f = remaining * weight_f / total
            single_g = remaining * weight_g / total
        return {
            Operation(frozenset((f, g))): both,
            Operation(frozenset((f,))): single_f,
            Operation(frozenset((g,))): single_g,
        }


def _as_fraction(value: Fraction | float) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value).limit_denominator(10**9)
