"""E20 — Extension: exact polynomial OCQA for ground queries (primary keys).

A small addition beyond the paper's toolbox (documented in DESIGN.md):
for *ground* queries over primary keys, ``P_{M_ur}``, ``P_{M_us}`` and the
singleton variants are computable exactly in polynomial time — no sampling,
no (ε, δ).  This bench validates the formulas against the exponential exact
engines at small sizes, exhibits the non-product coupling of ``M_us`` block
outcomes, and times the polynomial path at sizes enumeration cannot reach.
"""

import random
from fractions import Fraction

from repro.core import fact
from repro.core.queries import Atom, boolean_cq
from repro.counting.survival import ground_survival_mur, ground_survival_mus
from repro.exact import rrfreq, srfreq
from repro.workloads import block_database, random_block_database

from bench_utils import emit


def validation_rows():
    rows = []
    for sizes in ((3, 2), (3, 3), (4, 3)):
        database, constraints = block_database(list(sizes))
        chosen = {fact("R", "a0", "b0"), fact("R", "a1", "b0")}
        query = boolean_cq(*(Atom(f.relation, f.values) for f in sorted(chosen, key=str)))
        rows.append(
            (
                sizes,
                ground_survival_mur(database, constraints, chosen),
                rrfreq(database, constraints, query),
                ground_survival_mus(database, constraints, chosen),
                srfreq(database, constraints, query),
            )
        )
    return rows


def test_e20_polynomial_matches_exact(benchmark):
    rows = benchmark(validation_rows)
    for sizes, mur_poly, mur_exact, mus_poly, mus_exact in rows:
        assert mur_poly == mur_exact
        assert mus_poly == mus_exact
        emit(
            "E20",
            block_sizes=sizes,
            P_mur=str(mur_poly),
            P_mus=str(mus_poly),
            status="poly == exponential-exact",
        )


def test_e20_mus_coupling(benchmark):
    def coupling():
        database, constraints = block_database([3, 3])
        f, g = fact("R", "a0", "b0"), fact("R", "a1", "b0")
        joint = ground_survival_mus(database, constraints, {f, g})
        product = ground_survival_mus(database, constraints, {f}) * (
            ground_survival_mus(database, constraints, {g})
        )
        return joint, product

    joint, product = benchmark(coupling)
    assert joint == Fraction(19, 333)
    assert joint != product
    emit(
        "E20",
        finding="M_us block outcomes are dependent",
        joint=str(joint),
        product_of_marginals=str(product),
    )


def test_e20_scales_beyond_enumeration(benchmark):
    """200 blocks of up to 8 facts: |CRS| is astronomical, the poly path flies."""
    database, constraints = random_block_database(
        200, 8, random.Random(42), min_block_size=2
    )
    targets = frozenset(
        {database.sorted_facts()[0], database.sorted_facts()[-1]}
    )

    def compute():
        return ground_survival_mus(database, constraints, targets)

    value = benchmark(compute)
    assert 0 < value < 1
    emit(
        "E20",
        blocks=200,
        facts=len(database),
        P_mus=f"{float(value):.6f}",
        note="exact, no sampling",
    )
