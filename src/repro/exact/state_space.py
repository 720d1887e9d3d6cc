"""Exact engines over the database state space.

The transition structure of a repairing Markov chain out of a node ``s``
depends only on the database ``s(D)``: the justified operations are a
function of the current facts.  Counting complete sequences and summing leaf
probabilities can therefore memoize on ``frozenset(facts)`` instead of
walking the (much larger) sequence tree.  Worst-case cost is exponential in
``|D|`` — as it must be, by the paper's ♯P-hardness results — but small and
medium instances are handled comfortably, and the engines are exact
(:class:`fractions.Fraction` arithmetic throughout).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.operations import justified_operations
from ..core.queries import ConjunctiveQuery


class StateSpaceLimit(RuntimeError):
    """Raised when an exact computation would visit too many states."""


State = frozenset[Fact]


class StateSpaceEngine:
    """Shared memoized machinery for exact computations over one ``(D, Σ)``."""

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        singleton_only: bool = False,
        max_states: int = 5_000_000,
    ):
        self.database = database
        self.constraints = constraints
        self.singleton_only = singleton_only
        self.max_states = max_states
        self._children_cache: dict[State, tuple[State, ...]] = {}
        self._consistent_cache: dict[State, bool] = {}

    # -- state helpers ------------------------------------------------------------

    def _as_database(self, state: State) -> Database:
        return Database(state, schema=self.database.schema)

    def is_consistent(self, state: State) -> bool:
        if state not in self._consistent_cache:
            self._consistent_cache[state] = self.constraints.satisfied_by(
                self._as_database(state)
            )
        return self._consistent_cache[state]

    def children(self, state: State) -> tuple[State, ...]:
        """Successor states under each justified operation (one per op)."""
        if state not in self._children_cache:
            if len(self._children_cache) >= self.max_states:
                raise StateSpaceLimit(
                    f"exact engine exceeded {self.max_states} states; "
                    "use the samplers for instances of this size"
                )
            operations = justified_operations(
                self._as_database(state), self.constraints, self.singleton_only
            )
            self._children_cache[state] = tuple(
                state - op.removed for op in sorted(operations)
            )
        return self._children_cache[state]

    # -- counts ---------------------------------------------------------------------

    def count_complete_sequences(
        self, accept: Callable[[Database], bool] | None = None
    ) -> int:
        """``|CRS(D, Σ)|`` (or ``|CRS¹|`` when singleton-only).

        With ``accept`` given, counts only sequences whose *result* database
        satisfies the predicate — the numerator of ``srfreq``.
        """
        cache: dict[State, int] = {}

        def count(state: State) -> int:
            if state in cache:
                return cache[state]
            if self.is_consistent(state):
                if accept is None or accept(self._as_database(state)):
                    result = 1
                else:
                    result = 0
            else:
                result = sum(count(child) for child in self.children(state))
            cache[state] = result
            return result

        return count(frozenset(self.database.facts))

    def candidate_repairs(self) -> frozenset[Database]:
        """``CORep(D, Σ)`` (or ``CORep¹``): reachable consistent states."""
        cache: dict[State, frozenset[State]] = {}

        def reachable(state: State) -> frozenset[State]:
            if state in cache:
                return cache[state]
            if self.is_consistent(state):
                result = frozenset((state,))
            else:
                result = frozenset(
                    final for child in self.children(state) for final in reachable(child)
                )
            cache[state] = result
            return result

        return frozenset(
            self._as_database(state) for state in reachable(frozenset(self.database.facts))
        )

    def uniform_operations_probability(
        self, accept: Callable[[Database], bool]
    ) -> Fraction:
        """``P_{M_uo,Q}`` mass of leaves whose result satisfies ``accept``.

        Uses the locality of ``M_uo``: from state ``D'`` each of the ``k``
        justified operations is taken with probability ``1/k``, so the
        accepted-leaf mass satisfies
        ``h(D') = [accept]`` at consistent states and
        ``h(D') = (1/k) Σ h(child)`` otherwise.
        """
        cache: dict[State, Fraction] = {}

        def mass(state: State) -> Fraction:
            if state in cache:
                return cache[state]
            if self.is_consistent(state):
                result = Fraction(1) if accept(self._as_database(state)) else Fraction(0)
            else:
                children = self.children(state)
                share = Fraction(1, len(children))
                result = sum((share * mass(child) for child in children), Fraction(0))
            cache[state] = result
            return result

        return mass(frozenset(self.database.facts))

    def uniform_operations_repair_distribution(self) -> dict[Database, Fraction]:
        """``[[D]]_{M_uo}``: probability of each operational repair.

        Forward dynamic programming over states: total inbound probability
        mass per state, pushed uniformly across justified operations.
        Useful for small instances and for validating the samplers.
        """
        order: list[State] = []
        seen: set[State] = set()

        def topological(state: State) -> None:
            if state in seen:
                return
            seen.add(state)
            if not self.is_consistent(state):
                for child in self.children(state):
                    topological(child)
            order.append(state)

        start = frozenset(self.database.facts)
        topological(start)
        mass: dict[State, Fraction] = {state: Fraction(0) for state in order}
        mass[start] = Fraction(1)
        for state in reversed(order):  # reversed post-order = topological order
            inbound = mass[state]
            if inbound == 0 or self.is_consistent(state):
                continue
            children = self.children(state)
            share = inbound / len(children)
            for child in children:
                mass[child] += share
        return {
            self._as_database(state): probability
            for state, probability in mass.items()
            if probability > 0 and self.is_consistent(state)
        }


# -- module-level conveniences -------------------------------------------------------


def count_complete_sequences(
    database: Database, constraints: FDSet, singleton_only: bool = False
) -> int:
    """``|CRS(D, Σ)|`` / ``|CRS¹(D, Σ)|`` by memoized DP."""
    return StateSpaceEngine(database, constraints, singleton_only).count_complete_sequences()


def count_sequences_with_answer(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
    singleton_only: bool = False,
) -> int:
    """``|{s ∈ CRS : c̄ ∈ Q(s(D))}|`` — the ``srfreq`` numerator."""
    engine = StateSpaceEngine(database, constraints, singleton_only)
    return engine.count_complete_sequences(accept=lambda db: query.entails(db, answer))


def uniform_operations_answer_probability(
    database: Database,
    constraints: FDSet,
    query: ConjunctiveQuery,
    answer: tuple = (),
    singleton_only: bool = False,
) -> Fraction:
    """Exact ``P_{M_uo,Q}(D, c̄)`` (or the ``M_uo,1`` variant)."""
    engine = StateSpaceEngine(database, constraints, singleton_only)
    return engine.uniform_operations_probability(lambda db: query.entails(db, answer))
