"""Realistic scenarios used by the examples.

The data-integration scenario generalizes the paper's introduction: several
sources report employee records; merging them violates the key of ``Emp``;
trust in sources maps onto probabilities of the operations that delete their
tuples.  The paper's motivating two-fact example (``Emp(1, Alice)`` vs
``Emp(1, Tom)``, 50%/50% trust) is the special case with two sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.database import Database
from ..core.dependencies import FDSet, key
from ..core.facts import Fact, fact
from ..core.queries import ConjunctiveQuery, Variable, atom, cq
from ..core.schema import Schema
from ..sampling.rng import resolve_rng


@dataclass(frozen=True)
class IntegrationScenario:
    """A merged employee database with per-fact source attribution."""

    database: Database
    constraints: FDSet
    source_of: dict[Fact, str]


def intro_example() -> IntegrationScenario:
    """The paper's introduction example: two sources disagree on id 1."""
    schema = Schema.from_spec({"Emp": ["id", "name"]})
    constraints = FDSet(schema, [key(schema, "Emp", "id")])
    alice = fact("Emp", 1, "Alice")
    tom = fact("Emp", 1, "Tom")
    return IntegrationScenario(
        database=Database([alice, tom], schema=schema),
        constraints=constraints,
        source_of={alice: "source_A", tom: "source_B"},
    )


@dataclass(frozen=True)
class OrdersScenario:
    """A two-relation retail scenario with key violations in both tables."""

    database: Database
    constraints: FDSet

    def customer_spend_query(self) -> ConjunctiveQuery:
        """``Ans(n, t) :- Customer(i, n), Order(o, i, t)``: a join whose
        answers depend on which conflicting tuples survive repair."""
        i, n, o, t = (Variable(x) for x in "inot")
        return cq((n, t), (atom("Customer", i, n), atom("Order", o, i, t)))

    def customer_names_query(self) -> ConjunctiveQuery:
        """``Ans(n) :- Customer(i, n)``: which names survive repair at all."""
        i, n = Variable("i"), Variable("n")
        return cq((n,), (atom("Customer", i, n),))


def orders_scenario(
    n_customers: int = 4,
    n_orders: int = 6,
    conflict_rate: float = 0.5,
    rng: random.Random | None = None,
) -> OrdersScenario:
    """Customers and orders with primary keys on both relations.

    With probability ``conflict_rate`` a customer has a second conflicting
    name record, and an order a second conflicting total — so repairs must
    choose per entity, and join answers carry non-trivial probabilities.
    """
    rng = resolve_rng(rng)
    schema = Schema.from_spec(
        {"Customer": ["id", "name"], "Order": ["oid", "cust", "total"]}
    )
    constraints = FDSet(
        schema,
        [key(schema, "Customer", "id"), key(schema, "Order", "oid")],
    )
    facts: list[Fact] = []
    for customer in range(n_customers):
        facts.append(fact("Customer", customer, f"name{customer}"))
        if rng.random() < conflict_rate:
            facts.append(fact("Customer", customer, f"name{customer}_alt"))
    for order in range(n_orders):
        customer = rng.randrange(n_customers)
        total = (order + 1) * 10
        facts.append(fact("Order", order, customer, total))
        if rng.random() < conflict_rate:
            facts.append(fact("Order", order, customer, total + 5))
    return OrdersScenario(
        database=Database(facts, schema=schema), constraints=constraints
    )


def merged_sources(
    n_employees: int,
    n_sources: int,
    disagreement_rate: float = 0.4,
    rng: random.Random | None = None,
) -> IntegrationScenario:
    """Merge ``n_sources`` feeds of ``n_employees`` records.

    Every source reports every employee; with probability
    ``disagreement_rate`` a source reports its own variant of the name,
    otherwise the canonical one — so each employee id forms a block whose
    size is the number of *distinct* reported names.
    """
    rng = resolve_rng(rng)
    schema = Schema.from_spec({"Emp": ["id", "name"]})
    constraints = FDSet(schema, [key(schema, "Emp", "id")])
    facts: set[Fact] = set()
    source_of: dict[Fact, str] = {}
    for employee in range(n_employees):
        canonical = f"name{employee}"
        for source in range(n_sources):
            if rng.random() < disagreement_rate:
                reported = f"{canonical}_v{source}"
            else:
                reported = canonical
            record = fact("Emp", employee, reported)
            if record not in facts:
                facts.add(record)
                source_of[record] = f"source_{source}"
    return IntegrationScenario(
        database=Database(facts, schema=schema),
        constraints=constraints,
        source_of=source_of,
    )
