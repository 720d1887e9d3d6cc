"""Block decompositions for (primary) key constraints.

For a relation with key ``R : X -> Y``, the facts over ``R`` partition into
*blocks* of facts agreeing on all attributes of ``X`` (Lemma 5.2).  Two facts
in one block always jointly violate the key; facts in different blocks (or
over relations without a key) never conflict.  Blocks are therefore the
independent repair units of the primary-key case, and every counting / sampling
result in Sections 5, 6 and Appendix E is phrased over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterator

from .database import Database
from .dependencies import FDSet, FunctionalDependency
from .facts import Fact


class BlockError(ValueError):
    """Raised when a block decomposition is requested for unsupported Σ."""


@dataclass(frozen=True)
class Block:
    """A maximal set of same-relation facts agreeing on the key LHS."""

    relation: str
    group: tuple
    facts: frozenset[Fact]

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", frozenset(self.facts))
        if not self.facts:
            raise BlockError("a block cannot be empty")

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts())

    @property
    def has_conflicts(self) -> bool:
        """Blocks of size >= 2 are cliques of conflicts; singletons are safe."""
        return len(self.facts) >= 2

    def sorted_facts(self) -> list[Fact]:
        return sorted(self.facts, key=str)

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.sorted_facts())
        return f"Block[{self.relation}:{self.group}]{{{inner}}}"


@dataclass(frozen=True)
class BlockDecomposition:
    """All blocks of a database w.r.t. a set of primary keys.

    ``blocks`` lists every block (including singletons); helper views expose
    the conflicting blocks and the paper's product count formulas.
    """

    blocks: tuple[Block, ...]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def conflicting_blocks(self) -> list[Block]:
        """Blocks with at least two facts, in deterministic order."""
        return [b for b in self.blocks if b.has_conflicts]

    def singleton_facts(self) -> frozenset[Fact]:
        """Facts in size-one blocks: they appear in every operational repair."""
        return frozenset(f for b in self.blocks if not b.has_conflicts for f in b.facts)

    @cached_property
    def _block_by_fact(self) -> dict[Fact, Block]:
        return {f: block for block in self.blocks for f in block.facts}

    def block_of(self, fact: Fact) -> Block:
        """The block holding ``fact`` (one map read; the map is built once)."""
        block = self._block_by_fact.get(fact)
        if block is None:
            raise BlockError(f"fact {fact} belongs to no block")
        return block

    def sizes(self) -> list[int]:
        """Sizes of the conflicting blocks (the DP state of Lemma C.1)."""
        return sorted(len(b) for b in self.conflicting_blocks())

    # -- the paper's closed-form counts ----------------------------------------------

    def count_candidate_repairs(self) -> int:
        """``|CORep(D, Σ)| = Π (|B_i| + 1)`` over conflicting blocks (Lemma 5.2)."""
        return prod(len(b) + 1 for b in self.conflicting_blocks())

    def count_singleton_repairs(self) -> int:
        """``|CORep¹(D, Σ)| = Π |B_i|`` over conflicting blocks (Lemma E.2)."""
        return prod(len(b) for b in self.conflicting_blocks())


def block_decomposition(database: Database, constraints: FDSet) -> BlockDecomposition:
    """Decompose ``database`` into blocks w.r.t. a set of *primary keys*.

    Relations without a key in Σ contribute one singleton block per fact
    (as in the proof of Lemma 5.3).  Raises :class:`BlockError` when Σ is
    not a set of primary keys, because the block structure (and every count
    derived from it) is only sound in that case.
    """
    if not constraints.is_primary_keys():
        raise BlockError("block decomposition requires a set of primary keys")
    schema = constraints.schema
    key_by_relation: dict[str, FunctionalDependency] = {
        dependency.relation: dependency for dependency in constraints
    }
    blocks: list[Block] = []
    by_relation = database.by_relation()
    for relation in sorted(by_relation):
        facts = sorted(by_relation[relation], key=str)
        dependency = key_by_relation.get(relation)
        if dependency is None:
            blocks.extend(Block(relation, (str(f),), frozenset((f,))) for f in facts)
            continue
        rel = schema.relation(relation)
        lhs_positions = rel.positions_of(sorted(dependency.lhs))
        grouped: dict[tuple, set[Fact]] = {}
        for f in facts:
            grouped.setdefault(tuple(f.values[i] for i in lhs_positions), set()).add(f)
        for group_value in sorted(grouped, key=repr):
            blocks.append(Block(relation, group_value, frozenset(grouped[group_value])))
    return BlockDecomposition(tuple(blocks))


def blocks_of_facts(
    decomposition: BlockDecomposition, facts: frozenset[Fact]
) -> list[Block]:
    """The distinct blocks containing any of ``facts``, in decomposition order.

    Raises :class:`BlockError` if two of the facts share a block — callers
    use this on homomorphism images ``h(Q)`` with ``h(Q) |= Σ``, where the
    paper argues no two image facts can share a block.
    """
    chosen: list[Block] = []
    seen: set[Block] = set()
    for fact in sorted(facts, key=str):
        block = decomposition.block_of(fact)
        if block in seen:
            raise BlockError("two facts of a consistent image share a block")
        seen.add(block)
        chosen.append(block)
    return chosen
