"""E19 — Beyond uniform: local generators and the trust-weighted chain.

Section 7 credits ``M_uo``'s approximability to locality; the library makes
locality an interface.  This bench (a) reproduces the introduction's
source-trust numbers (0.25 / 0.375 / 0.375) with the
``TrustWeightedOperations`` generator, and (b) shows the three engines a
local generator gets for free — explicit chain, exact state-space DP,
leaf-distribution sampler — agreeing with one another.
"""

import random
from collections import Counter
from fractions import Fraction

from repro.analysis import repair_distribution
from repro.chains.trust import TrustWeightedOperations
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq
from repro.exact import exact_ocqa
from repro.sampling import LocalChainSampler

from bench_utils import emit


def intro_instance():
    schema = Schema.from_spec({"Emp": ["id", "name"]})
    alice = fact("Emp", 1, "Alice")
    tom = fact("Emp", 1, "Tom")
    database = Database([alice, tom], schema=schema)
    constraints = FDSet(schema, [fd("Emp", "id", "name")])
    return database, constraints, alice, tom


def running_instance():
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    database = Database(
        [
            fact("R", "a1", "b1", "c1"),
            fact("R", "a1", "b2", "c2"),
            fact("R", "a2", "b1", "c2"),
        ],
        schema=schema,
    )
    constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
    return database, constraints


def test_e19_intro_trust_numbers(benchmark):
    def masses():
        database, constraints, alice, tom = intro_instance()
        generator = TrustWeightedOperations()
        return generator.operation_distribution(database, constraints), alice, tom

    distribution, alice, tom = benchmark(masses)
    by_removed = {op.removed: p for op, p in distribution.items()}
    assert by_removed[frozenset({alice, tom})] == Fraction(1, 4)
    assert by_removed[frozenset({alice})] == Fraction(3, 8)
    assert by_removed[frozenset({tom})] == Fraction(3, 8)
    emit(
        "E19",
        artifact="intro example",
        remove_both="1/4",
        remove_single="3/8 each",
        paper="0.25 / 0.375 / 0.375",
    )


def test_e19_three_engines_agree(benchmark):
    def all_engines():
        database, constraints = running_instance()
        generator = TrustWeightedOperations()
        query = boolean_cq(atom("R", "a1", "b1", "c1"))
        chain = generator.chain(database, constraints)
        chain.validate()
        return (
            chain.answer_probability(query),
            exact_ocqa(database, constraints, generator, query),
            repair_distribution(database, constraints, generator),
            chain.repair_probabilities(),
        )

    chain_value, dp_value, dp_repairs, chain_repairs = benchmark(all_engines)
    assert chain_value == dp_value
    assert dp_repairs == chain_repairs
    emit(
        "E19",
        generator="M_trust",
        P_via_chain=str(chain_value),
        P_via_dp=str(dp_value),
        repairs=len(dp_repairs),
    )


def test_e19_sampler_fidelity(benchmark):
    database, constraints, alice, tom = intro_instance()
    generator = TrustWeightedOperations.with_trust(
        {alice: Fraction(4, 5), tom: Fraction(2, 5)}
    )
    exact = repair_distribution(database, constraints, generator)
    sampler = LocalChainSampler(database, constraints, generator, random.Random(903))

    def sample_block():
        return Counter(sampler.sample() for _ in range(8_000))

    counts = benchmark(sample_block)
    worst = max(
        abs(counts.get(repair, 0) / 8_000 - float(probability))
        for repair, probability in exact.items()
    )
    assert worst < 0.02
    emit(
        "E19",
        trust="alice 0.8 / tom 0.4",
        exact={str(k): str(v) for k, v in sorted(exact.items(), key=lambda x: str(x[0]))},
        worst_abs_deviation=round(worst, 4),
    )
