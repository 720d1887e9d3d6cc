"""E12 — Theorems E.1(1), E.8(1), E.11: the ♯Pos2DNF reduction.

Validates ``|sat(φ)| = 2^{|var|} rrfreq¹`` on random positive 2DNF formulas
and the cross-semantics identities ``rrfreq¹ = srfreq¹ = P_{M_uo,1}`` on
``D_φ``.
"""

import random

from repro.chains.generators import M_UO1
from repro.exact import exact_ocqa, rrfreq1, srfreq1
from repro.reductions.pos2dnf import pos2dnf_instance, sat_count_via_oracle
from repro.workloads import random_pos2dnf

from bench_utils import emit


def oracle_sweep():
    rows = []
    for seed in (400, 401, 402, 403):
        rng = random.Random(seed)
        formula = random_pos2dnf(rng.randint(3, 5), rng.randint(2, 4), rng)
        instance = pos2dnf_instance(formula)

        def oracle(database, answer, _c=instance.constraints, _q=instance.query):
            return rrfreq1(database, _c, _q, answer)

        via_oracle = sat_count_via_oracle(formula, oracle)
        brute = formula.count_satisfying()
        rows.append((seed, formula, via_oracle, brute))
    return rows


def test_e12_oracle_identity(benchmark):
    rows = benchmark(oracle_sweep)
    for seed, formula, via_oracle, brute in rows:
        assert via_oracle == brute
        emit(
            "E12",
            seed=seed,
            variables=len(formula.variables()),
            clauses=len(formula.clauses),
            sat_via_oracle=via_oracle,
            sat_bruteforce=brute,
        )
    emit("E12", identity="|sat| = 2^|var| rrfreq1", status="exact match")


def test_e12_cross_semantics_identities(benchmark):
    def all_semantics():
        formula = random_pos2dnf(4, 3, random.Random(410))
        instance = pos2dnf_instance(formula)
        r = rrfreq1(instance.database, instance.constraints, instance.query)
        s = srfreq1(instance.database, instance.constraints, instance.query)
        u = exact_ocqa(instance.database, instance.constraints, M_UO1, instance.query)
        return r, s, u

    r, s, u = benchmark(all_semantics)
    assert r == s == u
    emit("E12", identity="rrfreq1 = srfreq1 = P_uo1 on D_phi", value=str(r))
