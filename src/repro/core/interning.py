"""Interned-fact kernel: dense integer ids for one ``(D, Σ)`` instance.

Every sampled repair of a fixed database is a *subset of that database*, so
once a session has fixed ``(D, Σ)`` there is no reason to shuffle hash-heavy
:class:`~repro.core.facts.Fact` objects through the draw-and-evaluate loop.
:class:`InstanceIndex` interns the facts of a database once — assigning each
fact a dense integer id along the canonical
:meth:`~repro.core.database.Database.sorted_facts` order — and exposes the
derived integer structure the hot paths run on:

* **id bitmasks** — a fact set ``S ⊆ D`` is one Python ``int`` with bit
  ``i`` set iff fact ``i ∈ S``; "witness ⊆ sample" becomes
  ``w & s == w``, one machine-word-striped AND instead of a frozenset
  containment walk;
* **blocks as sorted id-tuples** — the conflicting blocks of the primary-key
  decomposition (Lemma 5.2), in the exact iteration order the samplers
  draw in (the samplers derive their own id-block structure from the same
  decomposition + interning, which is what makes id-based draws consume
  the RNG bit-for-bit identically to the object path).

The id order deliberately equals the canonical order
:mod:`repro.engine.store` has always persisted sample rows in, so an interned
sample encodes to disk as the *same* sorted index list a fact-set sample did.

The kernel is invisible at the public API surface: samplers and sessions
reconstruct :class:`~repro.core.facts.Fact` / fact-set results on demand via
:meth:`InstanceIndex.facts_of_mask`, and estimates are bit-for-bit identical
with the kernel on or off (``tests/test_interning.py`` asserts both).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .blocks import BlockDecomposition, block_decomposition
from .database import Database
from .dependencies import FDSet
from .facts import Fact


class InterningError(ValueError):
    """Raised when a fact outside the interned database is id-translated."""


def mask_ids(mask: int) -> list[int]:
    """The set bit positions of an id bitmask, ascending (the decode
    behind :meth:`InstanceIndex.facts_of_mask`)."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class InstanceIndex:
    """Dense ``Fact ↔ int`` interning for one database (plus block structure).

    Build one per ``(D, Σ)`` with :meth:`of` (an
    :class:`~repro.engine.session.EstimationSession` does this once and
    shares it).  Ids are positions in ``database.sorted_facts()``; masks are
    arbitrary-precision ints with bit ``i`` standing for fact id ``i``.
    """

    __slots__ = (
        "_facts",
        "_id_of",
        "_conflicting_blocks",
        "_always_kept_mask",
        "full_mask",
    )

    def __init__(
        self,
        facts: tuple[Fact, ...],
        conflicting_blocks: tuple[tuple[int, ...], ...] = (),
        always_kept_mask: int = 0,
    ):
        self._facts = facts
        self._id_of: dict[Fact, int] = {f: i for i, f in enumerate(facts)}
        self._conflicting_blocks = conflicting_blocks
        self._always_kept_mask = always_kept_mask
        self.full_mask = (1 << len(facts)) - 1

    @classmethod
    def of(
        cls,
        database: Database,
        constraints: FDSet | None = None,
        decomposition: BlockDecomposition | None = None,
    ) -> "InstanceIndex":
        """Intern ``database``, deriving block structure when available.

        With a primary-key ``constraints`` (or an explicit precomputed
        ``decomposition``), conflicting blocks are captured as id-tuples in
        the samplers' canonical order: decomposition order across blocks,
        string-sorted facts within a block.  Without either — e.g. the
        ``M_uo`` generators over arbitrary FDs — the index still interns
        facts and masks; only the block views are empty.
        """
        facts = tuple(database.sorted_facts())
        id_of = {f: i for i, f in enumerate(facts)}
        if decomposition is None and constraints is not None:
            if constraints.is_primary_keys():
                decomposition = block_decomposition(database, constraints)
        if decomposition is None:
            return cls(facts)
        conflicting = tuple(
            tuple(id_of[f] for f in block.sorted_facts())
            for block in decomposition.conflicting_blocks()
        )
        kept_mask = 0
        for f in decomposition.singleton_facts():
            kept_mask |= 1 << id_of[f]
        return cls(facts, conflicting, kept_mask)

    # -- basic views -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The interned facts, indexed by id (the canonical sorted order)."""
        return self._facts

    @property
    def id_of(self) -> Mapping[Fact, int]:
        """The inverse map ``Fact -> id``."""
        return self._id_of

    def conflicting_block_ids(self) -> tuple[tuple[int, ...], ...]:
        """Conflicting blocks as id-tuples, in the samplers' draw order."""
        return self._conflicting_blocks

    def always_kept_mask(self) -> int:
        """Mask of the facts in singleton blocks (kept by every repair)."""
        return self._always_kept_mask

    # -- id/mask translation -----------------------------------------------------------

    def mask_of(self, facts: Iterable[Fact]) -> int:
        """The bitmask of a fact set (every fact must be interned)."""
        mask = 0
        id_of = self._id_of
        for f in facts:
            identifier = id_of.get(f)
            if identifier is None:
                raise InterningError(
                    f"fact {f} is not part of the interned database"
                )
            mask |= 1 << identifier
        return mask

    def facts_of_mask(self, mask: int) -> frozenset[Fact]:
        """Reconstruct the fact set a mask stands for (object results on demand)."""
        facts = self._facts
        return frozenset(facts[i] for i in mask_ids(mask))
