"""Exact engines over the database state space.

The transition structure of a repairing Markov chain out of a node ``s``
depends only on the database ``s(D)``: the justified operations are a
function of the current facts.  Counting complete sequences and summing leaf
probabilities can therefore memoize on ``frozenset(facts)`` instead of
walking the (much larger) sequence tree.  Worst-case cost is exponential in
``|D|`` — as it must be, by the paper's ♯P-hardness results — but small and
medium instances are handled comfortably, and the engines are exact
(:class:`fractions.Fraction` arithmetic throughout).

:class:`StateSpaceEngine` serves two families.  Counting
(``count_complete_sequences``, ``candidate_repairs``) walks the justified
operations, or the single-fact ones when ``singleton_only``: the
``CRS``/``CORep`` side of ``M_us`` and ``M_ur``.  The probability DPs
(``answer_probability``, ``repair_distribution``) walk the labelled
transitions of any :class:`~repro.chains.generators.LocalChainGenerator`
— ``M_uo``, ``M_uo,1`` and every other local chain alike.  Every per-state
table counts against ``max_states``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ..chains.generators import LocalChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.operations import justified_operations
from ..core.queries import ConjunctiveQuery


class StateSpaceLimit(RuntimeError):
    """Raised when an exact computation would visit too many states."""


State = frozenset[Fact]
Moves = tuple[tuple[State, Fraction], ...]


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
        self._transitions_cache: dict[LocalChainGenerator, dict[State, Moves]] = {}

    # -- state helpers ------------------------------------------------------------

    def _as_database(self, state: State) -> Database:
        return Database(state, schema=self.database.schema)

    def _admit(self, cache: dict) -> None:
        """Refuse to grow a per-state table past ``max_states`` entries."""
        if len(cache) >= self.max_states:
            raise StateSpaceLimit(
                f"exact engine exceeded {self.max_states} states; "
                "use the samplers for instances of this size"
            )

    def is_consistent(self, state: State) -> bool:
        found = self._consistent_cache.get(state)
        if found is None:
            self._admit(self._consistent_cache)
            found = self.constraints.satisfied_by(self._as_database(state))
            self._consistent_cache[state] = found
        return found

    def children(self, state: State) -> tuple[State, ...]:
        """Successor states under each justified operation (one per op)."""
        if state not in self._children_cache:
            self._admit(self._children_cache)
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

    # -- local chains -----------------------------------------------------------------

    def _transitions(self, generator: LocalChainGenerator) -> Callable[[State], Moves]:
        """``state ↦ ((op(state), P(op | state)), …)`` under ``generator``.

        Lists only the operations taken with non-zero probability.  The
        tables are memoized per generator for the engine's lifetime, so
        several queries against one engine build each state's row once.
        """
        cache = self._transitions_cache.setdefault(generator, {})

        def moves(state: State) -> Moves:
            found = cache.get(state)
            if found is None:
                self._admit(cache)
                distribution = generator.operation_distribution(
                    self._as_database(state), self.constraints
                )
                found = tuple(
                    (state - op.removed, probability)
                    for op, probability in distribution.items()
                    if probability
                )
                cache[state] = found
            return found

        return moves

    def answer_probability(
        self, generator: LocalChainGenerator, accept: Callable[[Database], bool]
    ) -> Fraction:
        """Leaf mass of ``generator``'s chain whose result satisfies ``accept``.

        Backward DP on states: ``h(D') = [accept(D')]`` at consistent states
        and ``h(D') = Σ_op P(op | D') · h(op(D'))`` otherwise — the whole of
        Section 7's locality argument.  With ``accept = c̄ ∈ Q(·)`` this is
        ``P_{M_Σ,Q}(D, c̄)``.
        """
        moves = self._transitions(generator)
        cache: dict[State, Fraction] = {}

        def mass(state: State) -> Fraction:
            if state in cache:
                return cache[state]
            if self.is_consistent(state):
                result = Fraction(1) if accept(self._as_database(state)) else Fraction(0)
            else:
                result = sum(
                    (probability * mass(child) for child, probability in moves(state)),
                    Fraction(0),
                )
            cache[state] = result
            return result

        return mass(frozenset(self.database.facts))

    def repair_distribution(self, generator: LocalChainGenerator) -> dict[Database, Fraction]:
        """``[[D]]_{M_Σ}``: the probability of each operational repair.

        Forward DP on states: the inbound probability mass of each state,
        pushed along ``generator``'s transitions in topological order.
        """
        moves = self._transitions(generator)
        order: list[State] = []
        seen: set[State] = set()

        def topological(state: State) -> None:
            if state in seen:
                return
            seen.add(state)
            if not self.is_consistent(state):
                for child, _ in moves(state):
                    topological(child)
            order.append(state)

        start = frozenset(self.database.facts)
        topological(start)
        mass: dict[State, Fraction] = dict.fromkeys(order, Fraction(0))
        mass[start] = Fraction(1)
        for state in reversed(order):  # reversed post-order = topological order
            inbound = mass[state]
            if inbound and not self.is_consistent(state):
                for child, probability in moves(state):
                    mass[child] += inbound * probability
        return {
            self._as_database(state): probability
            for state, probability in mass.items()
            if probability and self.is_consistent(state)
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

