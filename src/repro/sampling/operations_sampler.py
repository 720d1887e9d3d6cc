"""Sampling from local chains (Lemmas 7.2 and D.7).

``M_uo`` is local: at each step every justified operation is equally likely,
so sampling a leaf according to the leaf distribution is a straightforward
random walk — no counting oracle is needed, and (unlike the other samplers)
this works for *arbitrary FDs*, exactly as the paper notes for Lemma 7.2.
Its proof "does not exploit keys in any way, but only the local nature of
the Markov chain generator", so :class:`LocalChainSampler` runs the same
walk for any :class:`~repro.chains.generators.LocalChainGenerator`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ..chains.generators import LocalChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.operations import Operation, sorted_justified_operations
from ..core.sequences import RepairingSequence
from .rng import resolve_rng, uniform_choice, weighted_choice


@dataclass(frozen=True)
class WalkResult:
    """One trajectory of the uniform-operations walk.

    ``probability`` is the exact leaf-distribution mass ``π(s)`` of the
    sampled sequence (the product of ``1/|Ops|`` along the path) — handy for
    diagnostics such as Prop D.6's exponentially small leaves.
    """

    sequence: RepairingSequence
    repair: Database
    probability: Fraction


class UniformOperationsSampler:
    """Draws leaves of ``M_uo(D)`` (or ``M_uo,1(D)``) per the leaf distribution."""

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        singleton_only: bool = False,
        rng: random.Random | None = None,
    ):
        self.database = database
        self.constraints = constraints
        self.singleton_only = singleton_only
        self.rng = resolve_rng(rng)

    def walk(self) -> WalkResult:
        """One full repairing walk from ``D`` to a consistent state."""
        state = self.database
        operations = []
        probability = Fraction(1)
        while True:
            available = sorted_justified_operations(
                state, self.constraints, self.singleton_only
            )
            if not available:
                break
            chosen = uniform_choice(available, self.rng)
            probability /= len(available)
            operations.append(chosen)
            state = chosen.apply(state)
        return WalkResult(RepairingSequence(tuple(operations)), state, probability)

    def sample(self) -> Database:
        """The repair of one walk (most callers only need the result)."""
        return self.walk().repair

    def __iter__(self):
        while True:
            yield self.sample()


def sample_uniform_operations_repair(
    database: Database,
    constraints: FDSet,
    rng: random.Random | None = None,
    singleton_only: bool = False,
) -> Database:
    """One-shot convenience wrapper around :class:`UniformOperationsSampler`."""
    return UniformOperationsSampler(database, constraints, singleton_only, rng).sample()


class LocalChainSampler:
    """Samples leaves of a local generator's chain per its leaf distribution.

    The generalization of the Lemma 7.2 walker: at each state, draw one
    justified operation from ``operation_distribution`` and apply it.
    """

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        generator: LocalChainGenerator,
        rng: random.Random | None = None,
    ):
        self.database = database
        self.constraints = constraints
        self.generator = generator
        self.rng = resolve_rng(rng)

    def walk(self) -> tuple[RepairingSequence, Database, Fraction]:
        """One trajectory: (sequence, repair, exact leaf probability)."""
        state = self.database
        operations: list[Operation] = []
        probability = Fraction(1)
        while not self.constraints.satisfied_by(state):
            distribution = self.generator.operation_distribution(
                state, self.constraints
            )
            chosen = self._draw(distribution)
            probability *= distribution[chosen]
            operations.append(chosen)
            state = chosen.apply(state)
        return RepairingSequence(tuple(operations)), state, probability

    def sample(self) -> Database:
        """The repair of one walk."""
        return self.walk()[1]

    def _draw(self, distribution: dict[Operation, Fraction]) -> Operation:
        """Exact draw from a rational distribution via a common denominator."""
        items = sorted(op for op, p in distribution.items() if p > 0)
        denominator = math.lcm(*(distribution[op].denominator for op in items))
        weights = [int(distribution[op] * denominator) for op in items]
        return weighted_choice(items, weights, self.rng)
