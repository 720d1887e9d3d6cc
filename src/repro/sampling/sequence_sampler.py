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

Two draw paths share that weight table and consume the RNG identically:

* :meth:`SequenceSampler.sample` — the object path, materializing the
  :class:`~repro.core.operations.Operation` tuple (and, via
  :meth:`~SequenceSampler.sample_result`, a result
  :class:`~repro.core.database.Database`);
* :meth:`SequenceSampler.sample_mask` — the interned fast path over an
  :class:`~repro.core.interning.InstanceIndex`, returning the survivor set
  as an id bitmask without constructing a single ``Operation``.

Under a shared seed the ``k``-th fast-path mask denotes exactly the
``k``-th object-path result (``tests/test_interning.py`` asserts this
bit-for-bit, including the post-draw RNG states).
"""

from __future__ import annotations

import random
from itertools import combinations

from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.interning import InstanceIndex
from ..core.operations import Operation
from ..core.sequences import RepairingSequence
from ..counting.crs_count import (
    count_crs1_for_block_sizes,
    count_crs_for_block_sizes,
    sequence_step_cumulative,
)
from .rng import resolve_rng, uniform_choice


def _pair_from_rank(rank: int, size: int) -> tuple[int, int]:
    """The ``rank``-th pair of ``combinations(range(size), 2)`` (lex order)."""
    first = 0
    row = size - 1
    while rank >= row:
        rank -= row
        first += 1
        row -= 1
    return first, first + 1 + rank


class SequenceSampler:
    """Draws elements of ``CRS(D, Σ)`` (or ``CRS¹``) uniformly at random."""

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
        self._initial_block_ids: list[list[int]] | None = None
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

    # -- interned fast path ------------------------------------------------------------

    @property
    def index(self) -> InstanceIndex:
        """The fact interning this sampler's fast path runs on (built lazily)."""
        if self._index is None:
            self._index = InstanceIndex.of(
                self.database, decomposition=self._decomposition
            )
        return self._index

    def _block_ids(self) -> list[list[int]]:
        if self._initial_block_ids is None:
            id_of = self.index.id_of
            self._initial_block_ids = [
                [id_of[f] for f in block] for block in self._initial_blocks
            ]
        return self._initial_block_ids

    def sample_mask(self) -> int:
        """One uniform draw, as the survivor-set bitmask of ``s(D)``.

        Runs entirely on integer ids: no ``Operation``, no intermediate
        ``Database``.  Consumes the RNG exactly like :meth:`sample` — the
        category draw reads the same memoized weight table, the victim
        draws use the same ``randrange`` arguments — so seeded streams are
        interchangeable between the two paths.
        """
        blocks = [list(block) for block in self._block_ids()]
        rng = self.rng
        removed = 0
        while True:
            active = [position for position, block in enumerate(blocks) if len(block) >= 2]
            if not active:
                break
            sizes = tuple(len(blocks[position]) for position in active)
            categories, cumulative = sequence_step_cumulative(
                sizes, self.singleton_only
            )
            position, kind = categories[cumulative.pick(rng)]
            block = blocks[active[position]]
            size = len(block)
            if kind == "single":
                victim = rng.randrange(size)
                removed |= 1 << block[victim]
                del block[victim]
            else:
                rank = rng.randrange(size * (size - 1) // 2)
                first, second = _pair_from_rank(rank, size)
                removed |= (1 << block[first]) | (1 << block[second])
                del block[second]
                del block[first]
        return self.index.full_mask & ~removed

    # -- object path -------------------------------------------------------------------

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
