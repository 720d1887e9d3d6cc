"""Uniform sampling of candidate repairs for primary keys.

Lemma 5.2: each conflicting block ``B`` independently contributes one of its
``|B| + 1`` outcomes (keep one designated fact, or keep none), so a uniform
repair is drawn by sampling each block's outcome uniformly; conflict-free
facts survive always.  Lemma E.2 is the singleton-operation variant, where
the empty outcome is unavailable and each block keeps exactly one fact.

Two draw paths consume the RNG identically (one ``randrange`` per
conflicting block, same arguments):

* :meth:`RepairSampler.sample` — the object path, materializing a result
  :class:`~repro.core.database.Database` per draw;
* :meth:`RepairSampler.sample_mask` — the interned fast path over an
  :class:`~repro.core.interning.InstanceIndex`: the survivor set as an id
  bitmask, built by OR-ing one precomputed bit per kept fact, with no
  ``Database`` (or even ``frozenset``) construction.
"""

from __future__ import annotations

import random

from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.interning import InstanceIndex
from .rng import resolve_rng


class RepairSampler:
    """Draws elements of ``CORep(D, Σ)`` uniformly, in ``O(|D|)`` per draw.

    Decomposition work is done once at construction; ``sample()`` then costs
    one uniform choice per conflicting block.  Callers holding a precomputed
    decomposition and/or interning (e.g. an
    :class:`~repro.engine.session.EstimationSession`) can pass them to skip
    even that.
    """

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        singleton_only: bool = False,
        rng: random.Random | None = None,
        decomposition: BlockDecomposition | None = None,
        index: InstanceIndex | None = None,
    ):
        self.database = database
        self.constraints = constraints
        self.singleton_only = singleton_only
        self.rng = resolve_rng(rng)
        if decomposition is None:
            decomposition = block_decomposition(database, constraints)
        self._decomposition = decomposition
        self._index = index
        self._kept_mask: int | None = None
        self._conflicting_bits: list[list[int]] | None = None
        self._always_kept: frozenset[Fact] = decomposition.singleton_facts()
        self._conflicting = [block.sorted_facts() for block in decomposition.conflicting_blocks()]
        if singleton_only:
            self.support_size = decomposition.count_singleton_repairs()
        else:
            self.support_size = decomposition.count_candidate_repairs()

    # -- interned fast path ------------------------------------------------------------

    @property
    def index(self) -> InstanceIndex:
        """The fact interning this sampler's fast path runs on (built lazily)."""
        if self._index is None:
            self._index = InstanceIndex.of(
                self.database, decomposition=self._decomposition
            )
        return self._index

    def _interned_blocks(self) -> list[list[int]]:
        if self._conflicting_bits is None:
            id_of = self.index.id_of
            self._conflicting_bits = [
                [1 << id_of[f] for f in block] for block in self._conflicting
            ]
            self._kept_mask = self.index.mask_of(self._always_kept)
        return self._conflicting_bits

    def sample_mask(self) -> int:
        """One uniform draw from ``CORep`` (or ``CORep¹``) as an id bitmask.

        Bit-for-bit the same RNG stream as :meth:`sample` under a shared
        seed: one ``randrange(|B| + 1)`` (resp. ``randrange(|B|)``) per
        conflicting block, in decomposition order.
        """
        blocks = self._interned_blocks()
        rng = self.rng
        mask = self._kept_mask
        if self.singleton_only:
            for bits in blocks:
                mask |= bits[rng.randrange(len(bits))]
        else:
            for bits in blocks:
                # ``len(bits)`` keeps a fact; index ``len(bits)`` keeps none.
                pick = rng.randrange(len(bits) + 1)
                if pick < len(bits):
                    mask |= bits[pick]
        return mask

    # -- object path -------------------------------------------------------------------

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
