"""Functional dependencies, keys, and primary keys.

An FD over a schema ``S`` is ``R : X -> Y`` with ``X, Y ⊆ att(R)``.  It is a
*key* when ``X ∪ Y = att(R)``.  A set of keys is a set of *primary keys* when
each relation has at most one key (Section 2).

Satisfaction: ``D |= R : X -> Y`` iff any two ``R``-facts agreeing on all of
``X`` also agree on all of ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .database import Database
from .facts import Fact
from .schema import RelationSchema, Schema, SchemaError


class DependencyError(ValueError):
    """Raised for ill-formed dependencies."""


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``relation : lhs -> rhs`` over attribute names."""

    relation: str
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))
        if not self.rhs:
            raise DependencyError(f"FD over {self.relation!r} must have a non-empty RHS")

    def __lt__(self, other: "FunctionalDependency") -> bool:
        # Deterministic ordering via the rendered form (frozensets do not sort).
        return str(self) < str(other)

    def validate(self, schema: Schema) -> None:
        """Raise unless lhs/rhs are attributes of ``relation`` in ``schema``."""
        rel = schema.relation(self.relation)
        unknown = (self.lhs | self.rhs) - rel.attribute_set()
        if unknown:
            raise SchemaError(
                f"FD {self} mentions attributes {sorted(unknown)} not in {rel}"
            )

    def is_key(self, schema: Schema) -> bool:
        """``X ∪ Y = att(R)``: the FD is a key of its relation."""
        rel = schema.relation(self.relation)
        return self.lhs | self.rhs == rel.attribute_set()

    def pair_satisfies(self, f: Fact, g: Fact, schema: Schema) -> bool:
        """Whether ``{f, g} |= self`` (the two-fact satisfaction check).

        Facts over other relations vacuously satisfy the FD.
        """
        if f.relation != self.relation or g.relation != self.relation:
            return True
        rel = schema.relation(self.relation)
        lhs_positions = rel.positions_of(sorted(self.lhs))
        if any(f.values[i] != g.values[i] for i in lhs_positions):
            return True
        rhs_positions = rel.positions_of(sorted(self.rhs))
        return all(f.values[i] == g.values[i] for i in rhs_positions)

    def satisfied_by(self, database: Database, schema: Schema | None = None) -> bool:
        """``D |= φ``: no pair of facts violates the FD."""
        schema = _resolve_schema(database, schema)
        facts = sorted(database.facts_of(self.relation), key=str)
        rel = schema.relation(self.relation)
        lhs_positions = rel.positions_of(sorted(self.lhs))
        rhs_positions = rel.positions_of(sorted(self.rhs))
        seen: dict[tuple, tuple] = {}
        for f in facts:
            group = tuple(f.values[i] for i in lhs_positions)
            value = tuple(f.values[i] for i in rhs_positions)
            if group in seen:
                if seen[group] != value:
                    return False
            else:
                seen[group] = value
        return True

    def __str__(self) -> str:
        lhs = ",".join(sorted(self.lhs))
        rhs = ",".join(sorted(self.rhs))
        return f"{self.relation}: {lhs} -> {rhs}"


def fd(relation: str, lhs: Iterable[str] | str, rhs: Iterable[str] | str) -> FunctionalDependency:
    """Convenience constructor; single attribute names may be bare strings."""
    lhs_set = frozenset([lhs]) if isinstance(lhs, str) else frozenset(lhs)
    rhs_set = frozenset([rhs]) if isinstance(rhs, str) else frozenset(rhs)
    return FunctionalDependency(relation, lhs_set, rhs_set)


def key(schema: Schema, relation: str, lhs: Iterable[str] | str) -> FunctionalDependency:
    """A key ``R : X -> att(R) \\ X`` written from its determining set."""
    rel = schema.relation(relation)
    lhs_set = frozenset([lhs]) if isinstance(lhs, str) else frozenset(lhs)
    unknown = lhs_set - rel.attribute_set()
    if unknown:
        raise SchemaError(f"key over {relation!r} mentions unknown attributes {sorted(unknown)}")
    rhs_set = rel.attribute_set() - lhs_set
    if not rhs_set:
        raise DependencyError(f"key over {relation!r} with lhs covering all attributes is trivial")
    return FunctionalDependency(relation, lhs_set, rhs_set)


class FDSet:
    """A set ``Σ`` of functional dependencies over a fixed schema.

    Provides satisfaction checking and the classification predicates the
    paper's complexity results are parameterized by (keys / primary keys).
    """

    __slots__ = ("_schema", "_fds")

    def __init__(self, schema: Schema, fds: Iterable[FunctionalDependency]):
        self._schema = schema
        fd_set = frozenset(fds)
        for dependency in fd_set:
            dependency.validate(schema)
        self._fds = fd_set

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def fds(self) -> frozenset[FunctionalDependency]:
        return self._fds

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(sorted(self._fds, key=str))

    def __len__(self) -> int:
        return len(self._fds)

    def __contains__(self, dependency: FunctionalDependency) -> bool:
        return dependency in self._fds

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FDSet):
            return self._schema == other._schema and self._fds == other._fds
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema, self._fds))

    # -- classification -------------------------------------------------------

    def all_keys(self) -> bool:
        """Every FD in Σ is a key."""
        return all(dependency.is_key(self._schema) for dependency in self._fds)

    def is_primary_keys(self) -> bool:
        """Σ is a set of keys with at most one key per relation name."""
        if not self.all_keys():
            return False
        relations = [dependency.relation for dependency in self._fds]
        return len(relations) == len(set(relations))

    def fds_over(self, relation: str) -> list[FunctionalDependency]:
        """The FDs of Σ over one relation name, deterministically ordered."""
        return [d for d in self if d.relation == relation]

    def keys_per_relation(self) -> dict[str, int]:
        """Number of FDs per relation name (the ``k`` in Lemma 7.4's proof)."""
        counts: dict[str, int] = {}
        for dependency in self._fds:
            counts[dependency.relation] = counts.get(dependency.relation, 0) + 1
        return counts

    # -- satisfaction ----------------------------------------------------------

    def satisfied_by(self, database: Database) -> bool:
        """``D |= Σ``."""
        return all(d.satisfied_by(database, self._schema) for d in self._fds)

    def pair_satisfies(self, f: Fact, g: Fact) -> bool:
        """Whether ``{f, g} |= Σ``."""
        return all(d.pair_satisfies(f, g, self._schema) for d in self._fds)

    def __str__(self) -> str:
        return "{" + "; ".join(str(d) for d in self) + "}"


def _resolve_schema(database: Database, schema: Schema | None) -> Schema:
    resolved = schema or database.schema
    if resolved is None:
        raise SchemaError("a schema is required (database carries none)")
    return resolved

