"""Component-wise FPRAS composition (Lemma B.5).

Lemma B.5 strengthens the independent-set inapproximability of [22] from
arbitrary to non-trivially connected graphs by the contrapositive of a
composition argument: if each connected component's count can be
(ε', δ')-approximated with ``ε' = ε/2n`` and ``δ' = δ/2n``, then the product
of the per-component estimates is an (ε, δ)-approximation of the total,
because ``(1 - ε/2n)^n >= 1 - ε`` and ``(1 + ε/2n)^n <= 1 + ε`` for
``0 <= ε <= 1`` (the inequalities the proof cites from [14]).

The same argument applies verbatim to counting operational repairs of a
database whose conflict graph is disconnected — per-component counts
multiply (Lemma 5.4's component-wise form).  This module implements the
composition generically and for both uses.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.graphs import UndirectedGraph, conflict_graph

Component = TypeVar("Component")

#: An estimator taking (component, epsilon, delta) and returning an estimate.
ComponentEstimator = Callable[[Component, float, float], float]


def per_component_budget(epsilon: float, delta: float, n_components: int) -> tuple[float, float]:
    """The (ε/2n, δ/2n) schedule of Lemma B.5."""
    if n_components < 1:
        raise ValueError("need at least one component")
    if not 0 < epsilon <= 1:
        raise ValueError("the composition inequalities need 0 < epsilon <= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return epsilon / (2 * n_components), delta / (2 * n_components)


def composed_estimate(
    components: Sequence[Component],
    estimator: ComponentEstimator,
    epsilon: float,
    delta: float,
    trivial_factor: float = 1.0,
) -> float:
    """Multiply per-component estimates under the Lemma B.5 schedule.

    ``trivial_factor`` accounts for components handled exactly (Lemma B.5
    multiplies by ``2^ℓ`` for the ``ℓ`` isolated nodes, each contributing
    two independent sets).
    """
    if not components:
        return trivial_factor
    epsilon_prime, delta_prime = per_component_budget(epsilon, delta, len(components))
    product = trivial_factor
    for component in components:
        product *= estimator(component, epsilon_prime, delta_prime)
    return product


def count_independent_sets_composed(
    graph: UndirectedGraph,
    component_counter: ComponentEstimator,
    epsilon: float,
    delta: float,
) -> float:
    """``|IS(G)|`` via per-connected-component estimation (Lemma B.5's A').

    Isolated nodes contribute an exact factor of 2 each; every non-trivial
    component goes through ``component_counter`` with the tightened budget.
    """
    nontrivial = [graph.subgraph(nodes) for nodes in graph.nontrivial_components()]
    return composed_estimate(
        nontrivial,
        component_counter,
        epsilon,
        delta,
        trivial_factor=float(2 ** len(graph.isolated_nodes())),
    )


def count_repairs_composed(
    database: Database,
    constraints: FDSet,
    component_counter: ComponentEstimator,
    epsilon: float,
    delta: float,
    singleton_only: bool = False,
) -> float:
    """``|CORep(D, Σ)|`` via per-conflict-component estimation.

    Components are passed to ``component_counter`` as sub-databases;
    conflict-free facts contribute factor 1 (they survive every repair).
    """
    graph = conflict_graph(database, constraints)
    components = [
        Database(nodes, schema=database.schema)
        for nodes in graph.nontrivial_components()
    ]
    return composed_estimate(components, component_counter, epsilon, delta)
