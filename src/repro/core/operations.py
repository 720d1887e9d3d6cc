"""Operations and justified operations (Definitions 3.1 and 3.3).

An operation ``-F`` removes a non-empty fact set ``F`` from whatever database
it is applied to.  Since the paper deals with FDs, additions never resolve
conflicts and only removals are needed.  ``-F`` is *justified* at a state
``D'`` when ``F ⊆ {f, g}`` for some violation ``(φ, {f, g}) ∈ V(D', Σ)`` —
i.e. the removal is a non-empty subset of a currently conflicting pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .database import Database
from .dependencies import FDSet
from .facts import Fact
from .violations import violating_fact_pairs


@dataclass(frozen=True)
class Operation:
    """The removal operation ``-F`` for a non-empty fact set ``F``."""

    removed: frozenset[Fact]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", frozenset(self.removed))
        if not self.removed:
            raise ValueError("an operation must remove a non-empty set of facts")

    @property
    def is_singleton(self) -> bool:
        """Whether the operation removes a single fact (the ``-f`` form)."""
        return len(self.removed) == 1

    @property
    def is_pair(self) -> bool:
        return len(self.removed) == 2

    def apply(self, database: Database) -> Database:
        """``op(D') = D' \\ F``."""
        return database.difference(self.removed)

    def __call__(self, database: Database) -> Database:
        return self.apply(database)

    def sorted_facts(self) -> list[Fact]:
        return sorted(self.removed, key=str)

    def __lt__(self, other: "Operation") -> bool:  # deterministic ordering
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Sort singleton removals before pair removals, then by fact names."""
        return (len(self.removed), tuple(str(f) for f in self.sorted_facts()))

    def lex_key(self) -> tuple:
        """Pure lexicographic order on removed-fact names.

        This matches the left-to-right child order of Figure 1 in the paper
        (``-f1 < -{f1,f2} < -f2 < -{f2,f3} < -f3``) and is the default child
        order of explicit repairing Markov chains, so the DFS canonical
        ordering reproduces the Section 4 worked example verbatim.
        """
        return tuple(str(f) for f in self.sorted_facts())

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.sorted_facts())
        if self.is_singleton:
            return f"-{inner}"
        return "-{" + inner + "}"


def remove(*facts: Fact) -> Operation:
    """Convenience constructor: ``remove(f)`` is ``-f``, ``remove(f, g)`` is ``-{f, g}``."""
    return Operation(frozenset(facts))


def justified_operations(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> frozenset[Operation]:
    """All ``(D', Σ)``-justified operations at state ``database``.

    Every violating pair ``{f, g}`` justifies the removals ``-f``, ``-g``
    and ``-{f, g}``; the same operation justified by several violations is
    counted once (operations are identified by their removal set, matching
    Definition 3.1).  With ``singleton_only=True`` the pair removal is
    excluded, yielding the operation space of the ``M^{·,1}`` generators
    (Section 7 / Appendix E).
    """
    found: set[Operation] = set()
    for pair in violating_fact_pairs(database, constraints):
        f, g = sorted(pair, key=str)
        found.add(Operation(frozenset((f,))))
        found.add(Operation(frozenset((g,))))
        if not singleton_only:
            found.add(Operation(pair))
    return frozenset(found)


def sorted_justified_operations(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> list[Operation]:
    """Justified operations in the library's deterministic order."""
    return sorted(justified_operations(database, constraints, singleton_only))


def is_justified(
    operation: Operation, database: Database, constraints: FDSet
) -> bool:
    """Definition 3.3: ``F ⊆ {f, g}`` for some current violation."""
    for pair in violating_fact_pairs(database, constraints):
        if operation.removed <= pair:
            return True
    return False


def apply_all(database: Database, operations: Iterable[Operation]) -> Database:
    """Apply a sequence of operations left to right."""
    state = database
    for operation in operations:
        state = operation.apply(state)
    return state
