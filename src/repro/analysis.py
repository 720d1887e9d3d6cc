"""Diagnostics over inconsistent databases and repair distributions.

Utilities a practitioner points at a dirty database before/after running
OCQA: inconsistency metrics, repair-size expectations, and distribution
summaries.  Exact versions use the library's exact engines (exponential
worst case): :func:`repair_distribution` reads ``M_ur``'s off
``CORep``, runs the state-space DP for ``M_uo``, ``M_uo,1`` and every
other local generator, and builds the explicit chain otherwise.  Sampled
versions accept any repair sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .chains.generators import LocalChainGenerator, MarkovChainGenerator, UniformRepairs
from .core.database import Database
from .core.dependencies import FDSet
from .core.graphs import conflict_graph
from .core.violations import violations
from .exact.enumerate import candidate_repairs
from .exact.state_space import StateSpaceEngine


@dataclass(frozen=True)
class InconsistencyReport:
    """Structural inconsistency metrics for ``(D, Σ)``."""

    facts: int
    violations: int
    conflicting_pairs: int
    facts_in_conflict: int
    nontrivial_components: int
    largest_component: int
    max_degree: int

    @property
    def inconsistency_ratio(self) -> float:
        """Fraction of facts involved in at least one conflict."""
        if self.facts == 0:
            return 0.0
        return self.facts_in_conflict / self.facts


def inconsistency_report(database: Database, constraints: FDSet) -> InconsistencyReport:
    """Measure how (and how badly) a database violates its FDs."""
    graph = conflict_graph(database, constraints)
    components = graph.nontrivial_components()
    return InconsistencyReport(
        facts=len(database),
        violations=len(violations(database, constraints)),
        conflicting_pairs=graph.edge_count(),
        facts_in_conflict=len(graph.nodes) - len(graph.isolated_nodes()),
        nontrivial_components=len(components),
        largest_component=max((len(c) for c in components), default=0),
        max_degree=graph.max_degree(),
    )


def repair_distribution(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
) -> dict[Database, Fraction]:
    """``[[D]]_{M_Σ}`` exactly, dispatching to the cheapest engine.

    ``M_ur``/``M_ur,1`` are uniform over (singleton) candidate repairs;
    ``M_uo``, ``M_uo,1`` and every other local generator use the
    state-space DP; anything else materializes the explicit chain.
    """
    if isinstance(generator, UniformRepairs):
        repairs = list(candidate_repairs(
            database, constraints, singleton_only=generator.singleton_only
        ))
        share = Fraction(1, len(repairs))
        return {repair: share for repair in repairs}
    if isinstance(generator, LocalChainGenerator):
        return StateSpaceEngine(database, constraints).repair_distribution(generator)
    chain = generator.chain(database, constraints)
    return chain.repair_probabilities()


def expected_repair_size(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
) -> Fraction:
    """``E[|D'|]`` over the generator's repair distribution (exact)."""
    distribution = repair_distribution(database, constraints, generator)
    return sum(
        (Fraction(len(repair)) * probability for repair, probability in distribution.items()),
        Fraction(0),
    )


def expected_deletion_count(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
) -> Fraction:
    """``E[|D| - |D'|]``: how many facts repairing is expected to delete."""
    return Fraction(len(database)) - expected_repair_size(database, constraints, generator)


def repair_distribution_entropy(distribution: dict[Database, Fraction]) -> float:
    """Shannon entropy (bits) of a repair distribution.

    Uniform-repairs distributions attain ``log2 |CORep|``; skewed chains
    (e.g. trust-weighted ones) measurably concentrate.
    """
    entropy = 0.0
    for probability in distribution.values():
        p = float(probability)
        if p > 0:
            entropy -= p * math.log2(p)
    return entropy


def sampled_expected_repair_size(
    sample: Callable[[], Database],
    samples: int = 1_000,
) -> float:
    """Monte-Carlo ``E[|D'|]`` from any repair sampler callable."""
    if samples <= 0:
        raise ValueError("need a positive sample count")
    return sum(len(sample()) for _ in range(samples)) / samples


def total_variation_distance(
    first: dict[Database, Fraction], second: dict[Database, Fraction]
) -> Fraction:
    """``TV(P, Q) = (1/2) Σ |P - Q|`` between two repair distributions."""
    keys = set(first) | set(second)
    total = sum(
        abs(first.get(key, Fraction(0)) - second.get(key, Fraction(0))) for key in keys
    )
    return Fraction(total, 2)


def empirical_distribution(
    draws: Iterable[Database],
) -> dict[Database, Fraction]:
    """Turn sampler draws into an empirical repair distribution."""
    counts: dict[Database, int] = {}
    total = 0
    for repair in draws:
        counts[repair] = counts.get(repair, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("no draws given")
    return {repair: Fraction(count, total) for repair, count in counts.items()}


def expected_answer_count(
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query,
) -> Fraction:
    """``E[|Q(D')|]`` over the generator's repair distribution (exact).

    The probability-weighted number of answers the query returns after
    repairing — a natural "how much signal survives" aggregate.  Equals the
    sum of the per-answer probabilities by linearity of expectation, and the
    tests assert exactly that identity.
    """
    distribution = repair_distribution(database, constraints, generator)
    return sum(
        (Fraction(len(query.answers(repair))) * probability
         for repair, probability in distribution.items()),
        Fraction(0),
    )


def compare_generators(
    database: Database,
    constraints: FDSet,
    generators: Iterable[MarkovChainGenerator],
) -> dict[str, dict[str, object]]:
    """Side-by-side summary of several generators on one instance."""
    summary: dict[str, dict[str, object]] = {}
    for generator in generators:
        distribution = repair_distribution(database, constraints, generator)
        summary[generator.name] = {
            "repairs": len(distribution),
            "expected_size": expected_repair_size(database, constraints, generator),
            "entropy_bits": repair_distribution_entropy(distribution),
        }
    return summary
