"""Uniform sampling of candidate repairs for primary keys.

Lemma 5.2: each conflicting block ``B`` independently contributes one of its
``|B| + 1`` outcomes (keep one designated fact, or keep none), so a uniform
repair is drawn by sampling each block's outcome uniformly; conflict-free
facts survive always.  Lemma E.2 is the singleton-operation variant, where
the empty outcome is unavailable and each block keeps exactly one fact.

This is the reference sampler: estimation pools draw the same law in
whole batches on :class:`~repro.sampling.vectorized.VectorRepairPlane`.
"""

from __future__ import annotations

import random

from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from .rng import resolve_rng


class RepairSampler:
    """Draws elements of ``CORep(D, Σ)`` uniformly, in ``O(|D|)`` per draw.

    Decomposition work is done once at construction; ``sample()`` then costs
    one uniform choice per conflicting block.  Callers holding a precomputed
    decomposition (e.g. an :class:`~repro.engine.session.EstimationSession`)
    can pass it to skip even that.
    """

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
        self._always_kept: frozenset[Fact] = decomposition.singleton_facts()
        self._conflicting = [block.sorted_facts() for block in decomposition.conflicting_blocks()]
        if singleton_only:
            self.support_size = decomposition.count_singleton_repairs()
        else:
            self.support_size = decomposition.count_candidate_repairs()

    def sample(self) -> Database:
        """One uniform draw from ``CORep`` (or ``CORep¹``)."""
        chosen: set[Fact] = set(self._always_kept)
        for block_facts in self._conflicting:
            if self.singleton_only:
                index = self.rng.randrange(len(block_facts))
            else:
                # ``len(block)`` keeps a fact; index ``len(block)`` keeps none.
                index = self.rng.randrange(len(block_facts) + 1)
            if index < len(block_facts):
                chosen.add(block_facts[index])
        return Database(chosen, schema=self.database.schema)

    def __iter__(self):
        while True:
            yield self.sample()


def sample_candidate_repair(
    database: Database,
    constraints: FDSet,
    rng: random.Random | None = None,
    singleton_only: bool = False,
) -> Database:
    """One-shot convenience wrapper around :class:`RepairSampler`."""
    return RepairSampler(database, constraints, singleton_only, rng).sample()
