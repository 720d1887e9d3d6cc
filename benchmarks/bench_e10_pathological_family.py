"""E10 — Proposition D.6: the exponentially-small-probability family.

Regenerates the decay table ``P_{M_uo,Q}(D_n) = Π j/(2j+1) <= 2^{-(n-1)}``,
shows plain Monte Carlo failing (zero hits at n = 16 over thousands of
walks) and the singleton-operation semantics fixing it — the paper's
motivation for Theorem 7.5.
"""

import random

from repro.chains.generators import M_UO
from repro.exact import exact_ocqa
from repro.reductions.pathological import (
    exact_centre_probability,
    pathological_instance,
    proposition_d6_upper_bound,
)
from repro.sampling.operations_sampler import UniformOperationsSampler

from bench_utils import emit

WALKS = 3_000


def decay_table():
    rows = []
    for n in (2, 4, 6, 8, 10, 12, 14, 16):
        rows.append((n, exact_centre_probability(n), proposition_d6_upper_bound(n)))
    return rows


def test_e10_decay_table(benchmark):
    rows = benchmark(decay_table)
    for n, value, bound in rows:
        assert 0 < value <= bound
        emit(
            "E10",
            n=n,
            exact=f"{float(value):.3e}",
            bound=f"{float(bound):.3e}",
            paper="P <= 2^-(n-1)",
        )
    # Cross-check the closed form against the state-space DP at one point.
    instance = pathological_instance(8)
    assert (
        exact_ocqa(instance.database, instance.constraints, M_UO, instance.query)
        == exact_centre_probability(8)
    )


def monte_carlo_hits(n, singleton_only, seed):
    instance = pathological_instance(n)
    walker = UniformOperationsSampler(
        instance.database,
        instance.constraints,
        singleton_only=singleton_only,
        rng=random.Random(seed),
    )
    return sum(1 for _ in range(WALKS) if instance.query.entails(walker.sample()))


def test_e10_monte_carlo_failure(benchmark):
    hits = benchmark(monte_carlo_hits, 16, False, 51)
    assert hits == 0  # the estimator returns 0 although P > 0
    emit(
        "E10",
        semantics="M_uo",
        n=16,
        walks=WALKS,
        hits=hits,
        note="estimator blind to positive probability",
    )


def test_e10_singleton_rescue(benchmark):
    hits = benchmark(monte_carlo_hits, 16, True, 52)
    assert hits > 50  # P = 1/16 under singleton operations
    emit(
        "E10",
        semantics="M_uo,1",
        n=16,
        walks=WALKS,
        hits=hits,
        note="Theorem 7.5 restores estimability",
    )
