"""Uniform sampling of complete repairing sequences (Algorithm 1, Lemma 6.2).

``SampleSeq`` extends the current sequence one justified operation at a
time, choosing operation ``op`` with probability
``|CRS(op(s(D)), Σ)| / |CRS(s(D), Σ)|`` — the telescoping product then makes
every complete sequence equally likely.  For primary keys the counts come
from Lemma C.1's polynomial DP; moreover ``|CRS|`` depends only on the
multiset of conflicting block sizes, and all single-fact (resp. pair)
removals within one block lead to count-equivalent states, so the sampler
first draws a (block, kind) category by aggregated weight and then the
concrete fact(s) uniformly.  The category weights are memoized per
block-size state (:func:`~repro.counting.crs_count.sequence_step_weights`).

The singleton-operation variant (Lemma E.9) restricts to single-fact
removals and uses the ``|CRS¹|`` counts.

This is the reference sampler: estimation pools draw the same law in
whole batches on :class:`~repro.sampling.vectorized.VectorSequencePlane`.
"""

from __future__ import annotations

import random
from itertools import combinations

from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.operations import Operation
from ..core.sequences import RepairingSequence
from ..counting.crs_count import (
    count_crs1_for_block_sizes,
    count_crs_for_block_sizes,
    sequence_step_cumulative,
)
from .rng import resolve_rng, uniform_choice


class SequenceSampler:
    """Draws elements of ``CRS(D, Σ)`` (or ``CRS¹``) uniformly at random."""

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        singleton_only: bool = False,
        rng: random.Random | None = None,
        decomposition: BlockDecomposition | None = None,
    ):
        self.database = database
        self.constraints = constraints
        self.singleton_only = singleton_only
        self.rng = resolve_rng(rng)
        if decomposition is None:
            decomposition = block_decomposition(database, constraints)
        self._initial_blocks = [
            block.sorted_facts() for block in decomposition.conflicting_blocks()
        ]
        self.support_size = self._count(
            tuple(sorted(len(block) for block in self._initial_blocks))
        )

    def _count(self, sizes: tuple[int, ...]) -> int:
        if self.singleton_only:
            return count_crs1_for_block_sizes(sizes)
        return count_crs_for_block_sizes(sizes)

    def sample(self) -> RepairingSequence:
        """One uniform draw; cost is polynomial in ``|D|`` per draw."""
        blocks = [list(block) for block in self._initial_blocks]
        operations: list[Operation] = []
        while True:
            active = [index for index, block in enumerate(blocks) if len(block) >= 2]
            if not active:
                break
            sizes = tuple(len(blocks[index]) for index in active)
            categories, cumulative = sequence_step_cumulative(
                sizes, self.singleton_only
            )
            position, kind = cumulative.choice(categories, self.rng)
            block = blocks[active[position]]
            if kind == "single":
                victim = uniform_choice(block, self.rng)
                operations.append(Operation(frozenset((victim,))))
                block.remove(victim)
            else:
                pair = uniform_choice(list(combinations(block, 2)), self.rng)
                operations.append(Operation(frozenset(pair)))
                for victim in pair:
                    block.remove(victim)
        return RepairingSequence(tuple(operations))

    def sample_result(self) -> Database:
        """The result database ``s(D)`` of one uniform sequence draw."""
        return self.sample().apply(self.database)

    def __iter__(self):
        while True:
            yield self.sample()


def sample_complete_sequence(
    database: Database,
    constraints: FDSet,
    rng: random.Random | None = None,
    singleton_only: bool = False,
) -> RepairingSequence:
    """One-shot convenience wrapper around :class:`SequenceSampler`."""
    return SequenceSampler(database, constraints, singleton_only, rng).sample()
