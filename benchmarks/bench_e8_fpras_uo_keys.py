"""E8 — Theorem 7.1(2) / Prop 7.3: M_uo FPRAS beyond primary keys.

The headline result: uniform operations stay approximable for *arbitrary
keys*, the regime the classical approach cannot reach.  Instances are
multi-key databases whose conflict graphs are bounded-degree connected
graphs (the Prop 5.5 encoding); the walker of Lemma 7.2 plus the adaptive
stopping rule estimate ``P_{M_uo,Q}``, compared against exact state-space
values; Prop 7.3's positivity bound is validated alongside.
"""

import random

from repro.approx.bounds import uo_keys_lower_bound
from repro.approx.fpras import fpras_ocqa
from repro.chains.generators import M_UO
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.workloads import multikey_database

from bench_utils import emit, relative_error


def build_instance(seed, n_nodes):
    instance = multikey_database(n_nodes, max_degree=3, rng=random.Random(seed))
    target = instance.database.sorted_facts()[0]
    query = boolean_cq(atom(target.relation, *target.values))
    return instance, query


def run_sweep():
    results = []
    for seed, n_nodes in ((300, 5), (301, 6), (302, 7)):
        instance, query = build_instance(seed, n_nodes)
        exact = float(
            exact_ocqa(instance.database, instance.constraints, M_UO, query)
        )
        estimate = fpras_ocqa(
            instance.database,
            instance.constraints,
            M_UO,
            query,
            epsilon=0.2,
            delta=0.1,
            method="dklr",
            rng=random.Random(seed + 7),
        )
        results.append((seed, n_nodes, instance, query, exact, estimate))
    return results


def test_e8_fpras_uo_keys(benchmark):
    results = benchmark(run_sweep)
    failures = 0
    for seed, n_nodes, instance, query, exact, estimate in results:
        error = relative_error(estimate.estimate, exact)
        bound = uo_keys_lower_bound(instance.database, instance.constraints, query)
        assert exact == 0 or exact >= bound  # Prop 7.3 positivity
        emit(
            "E8",
            nodes=n_nodes,
            keys=len(instance.constraints),
            exact=round(exact, 4),
            estimate=round(estimate.estimate, 4),
            rel_error=round(error, 4),
            samples=estimate.samples_used,
        )
        if error > 0.2:
            failures += 1
    assert failures <= 1
    emit("E8", claim="FPRAS beyond primary keys (arbitrary keys)", excursions=failures)


def test_e8_walker_throughput(benchmark):
    """Per-walk cost on a larger multi-key instance."""
    from repro.sampling.operations_sampler import UniformOperationsSampler

    instance, _ = build_instance(310, 14)
    walker = UniformOperationsSampler(
        instance.database, instance.constraints, rng=random.Random(311)
    )
    repair = benchmark(walker.sample)
    assert instance.constraints.satisfied_by(repair)
