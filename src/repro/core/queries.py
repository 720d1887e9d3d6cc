"""Conjunctive queries and homomorphism-based evaluation.

A CQ has the form ``Ans(x̄) :- R1(ȳ1), ..., Rn(ȳn)`` (Section 2).  Terms are
variables or constants; semantics is via homomorphisms that are the identity
on constants.  Evaluation is a backtracking join: atoms are matched one at a
time against per-relation fact indexes, extending a partial assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .database import Database
from .facts import Constant, Fact


class QueryError(ValueError):
    """Raised for ill-formed queries."""


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, identified by name."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Variable | Constant


def var(name: str) -> Variable:
    """Convenience constructor for variables."""
    return Variable(name)


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(t1, ..., tn)`` with variable or constant terms."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        return frozenset(t for t in self.terms if not isinstance(t, Variable))

    def ground(self, assignment: Mapping[Variable, Constant]) -> Fact:
        """The fact obtained by applying a total assignment to this atom."""
        values = []
        for term in self.terms:
            if isinstance(term, Variable):
                if term not in assignment:
                    raise QueryError(f"assignment does not bind {term}")
                values.append(assignment[term])
            else:
                values.append(term)
        return Fact(self.relation, tuple(values))

    def __str__(self) -> str:
        rendered = ", ".join(str(t) if isinstance(t, Variable) else repr(t) for t in self.terms)
        return f"{self.relation}({rendered})"


def atom(relation: str, *terms: Term) -> Atom:
    """Convenience constructor: ``atom('R', var('x'), 'a')``."""
    return Atom(relation, tuple(terms))


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``Ans(answer_variables) :- atoms``.

    ``answer_variables`` may be empty, in which case the query is Boolean.
    Every answer variable must occur in some atom (safety, as in the paper).
    """

    answer_variables: tuple[Variable, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.answer_variables, tuple):
            object.__setattr__(self, "answer_variables", tuple(self.answer_variables))
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise QueryError("a CQ must have at least one atom")
        body_vars = self.variables()
        for v in self.answer_variables:
            if v not in body_vars:
                raise QueryError(f"answer variable {v} does not occur in the body")

    # -- structure -------------------------------------------------------------

    @property
    def is_boolean(self) -> bool:
        return not self.answer_variables

    @property
    def is_atomic(self) -> bool:
        """Single-atom query (the case analysed first in Section 7)."""
        return len(self.atoms) == 1

    def variables(self) -> frozenset[Variable]:
        """``var(Q)``."""
        return frozenset(v for a in self.atoms for v in a.variables())

    def constants(self) -> frozenset[Constant]:
        """``const(Q)``."""
        return frozenset(c for a in self.atoms for c in a.constants())

    def atom_count(self) -> int:
        """``|Q|`` when the query is viewed as its set of body atoms."""
        return len(self.atoms)

    # -- evaluation -------------------------------------------------------------

    def homomorphisms(
        self,
        database: Database,
        fixed: Mapping[Variable, Constant] | None = None,
    ) -> Iterator[dict[Variable, Constant]]:
        """All homomorphisms from the query body into ``database``.

        ``fixed`` pre-binds variables (used to require ``h(x̄) = c̄``).
        Yields total assignments over ``var(Q)``; distinct assignments may
        induce the same image ``h(Q)``.
        """
        index = database.by_relation()
        # Match most-constrained atoms first: fewer candidate facts prune earlier.
        ordered = sorted(self.atoms, key=lambda a: len(index.get(a.relation, ())))
        assignment: dict[Variable, Constant] = dict(fixed or {})
        yield from _extend(ordered, 0, assignment, index)

    def image(self, assignment: Mapping[Variable, Constant]) -> frozenset[Fact]:
        """``h(Q)``: the set of facts the body maps to under ``assignment``."""
        return frozenset(a.ground(assignment) for a in self.atoms)

    def answers(self, database: Database) -> frozenset[tuple[Constant, ...]]:
        """``Q(D)``: the set of answer tuples."""
        found = set()
        for h in self.homomorphisms(database):
            found.add(tuple(h[v] for v in self.answer_variables))
        return frozenset(found)

    def entails(self, database: Database, answer: tuple[Constant, ...] = ()) -> bool:
        """Whether ``answer ∈ Q(D)`` (``D |= Q`` for Boolean queries)."""
        fixed = _bind_answer(self.answer_variables, answer)
        if fixed is None:
            return False
        for _ in self.homomorphisms(database, fixed=fixed):
            return True
        return False

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.answer_variables)
        body = ", ".join(str(a) for a in self.atoms)
        return f"Ans({head}) :- {body}"


def cq(answer_variables: Iterable[Variable], atoms: Iterable[Atom]) -> ConjunctiveQuery:
    """Convenience constructor for :class:`ConjunctiveQuery`."""
    return ConjunctiveQuery(tuple(answer_variables), tuple(atoms))


def boolean_cq(*atoms: Atom) -> ConjunctiveQuery:
    """A Boolean CQ from its body atoms."""
    return ConjunctiveQuery((), tuple(atoms))


def _bind_answer(
    answer_variables: tuple[Variable, ...], answer: tuple[Constant, ...]
) -> dict[Variable, Constant] | None:
    """Bind answer variables to an answer tuple; ``None`` on repeat-variable clash.

    Raises :class:`QueryError` when the tuple's arity is not ``|x̄|``.
    """
    if len(answer) != len(answer_variables):
        raise QueryError(
            f"answer arity {len(answer)} does not match |x̄| = {len(answer_variables)}"
        )
    fixed: dict[Variable, Constant] = {}
    for v, c in zip(answer_variables, answer):
        if v in fixed and fixed[v] != c:
            return None
        fixed[v] = c
    return fixed


def _extend(
    atoms: list[Atom],
    position: int,
    assignment: dict[Variable, Constant],
    index: Mapping[str, frozenset[Fact]],
) -> Iterator[dict[Variable, Constant]]:
    """Backtracking matcher: extend ``assignment`` to cover ``atoms[position:]``."""
    if position == len(atoms):
        yield dict(assignment)
        return
    current = atoms[position]
    for f in index.get(current.relation, ()):
        if f.arity != current.arity:
            continue
        bound: list[Variable] = []
        consistent = True
        for term, value in zip(current.terms, f.values):
            if isinstance(term, Variable):
                if term in assignment:
                    if assignment[term] != value:
                        consistent = False
                        break
                else:
                    assignment[term] = value
                    bound.append(term)
            elif term != value:
                consistent = False
                break
        if consistent:
            yield from _extend(atoms, position + 1, assignment, index)
        for v in bound:
            del assignment[v]
