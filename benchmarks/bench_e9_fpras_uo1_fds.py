"""E9 — Theorem 7.5 / Lemma D.8: M_uo,1 FPRAS for arbitrary FDs.

Singleton operations restore approximability for general FDs: the walker of
Lemma D.7 plus Lemma D.8's ``1/(e|D|)^{|Q|}`` bound.  Instances mix star
FDs (the Prop D.6 gadget shape) and the running example's two-FD pattern.
"""

import random

from repro.approx.bounds import uo_singleton_fd_lower_bound
from repro.approx.fpras import fpras_ocqa
from repro.chains.generators import M_UO1
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.workloads import fd_star_database

from bench_utils import emit, relative_error


def instances():
    built = []
    database, constraints = fd_star_database(n_stars=2, spokes_per_star=3)
    built.append(("fd_stars", database, constraints, boolean_cq(atom("R", "s0", 0, 0))))
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    two_fd = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
    chain_db = Database(
        [
            fact("R", "a1", "b1", "c1"),
            fact("R", "a1", "b2", "c2"),
            fact("R", "a2", "b1", "c2"),
            fact("R", "a2", "b3", "c3"),
        ],
        schema=schema,
    )
    built.append(
        ("two_fds", chain_db, two_fd, boolean_cq(atom("R", "a1", "b1", "c1")))
    )
    return built


def run_sweep():
    results = []
    for name, database, constraints, query in instances():
        exact = float(
            exact_ocqa(database, constraints, M_UO1, query)
        )
        estimate = fpras_ocqa(
            database,
            constraints,
            M_UO1,
            query,
            epsilon=0.2,
            delta=0.1,
            method="dklr",
            rng=random.Random(hash(name) % 2**31),
        )
        results.append((name, database, query, exact, estimate))
    return results


def test_e9_fpras_uo1_fds(benchmark):
    results = benchmark(run_sweep)
    failures = 0
    for name, database, query, exact, estimate in results:
        error = relative_error(estimate.estimate, exact)
        bound = uo_singleton_fd_lower_bound(database, query)
        assert exact == 0 or exact >= float(bound)  # Lemma D.8
        emit(
            "E9",
            workload=name,
            exact=round(exact, 4),
            estimate=round(estimate.estimate, 4),
            rel_error=round(error, 4),
            samples=estimate.samples_used,
            bound=f"{float(bound):.2e}",
        )
        if error > 0.2:
            failures += 1
    assert failures <= 1
    emit("E9", claim="M_uo,1 FPRAS covers non-key FDs (Theorem 7.5)")


def test_e9_singleton_walker_throughput(benchmark):
    from repro.sampling.operations_sampler import UniformOperationsSampler

    database, constraints = fd_star_database(n_stars=10, spokes_per_star=5)
    walker = UniformOperationsSampler(
        database, constraints, singleton_only=True, rng=random.Random(99)
    )
    repair = benchmark(walker.sample)
    assert constraints.satisfied_by(repair)
