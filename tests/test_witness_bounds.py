"""Per-answer positivity bounds: budgets sized from the answer's own witnesses.

A request's Chernoff ``p_lower`` only has to bound *its* answer's
probability from below.  Every answer is at least as likely as any one of
its conflict-free witnesses surviving, and on primary keys that survival is
exact (:mod:`repro.counting.survival`), so sessions read the larger of it
and the paper's worst-case floor.  These tests pin that the bound is valid
(never above the exact probability, never below the floor), that it is cast
to a float toward zero, and the structures that keep it cheap.
"""

from dataclasses import replace
from fractions import Fraction
from math import nextafter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.approx.bounds import (
    float_at_most,
    rrfreq_lower_bound,
    singleton_frequency_lower_bound,
    srfreq_lower_bound,
)
from repro.approx.montecarlo import chernoff_sample_size
from repro.chains.generators import M_UO, M_UR, M_UR1, M_US
from repro.core.blocks import BlockError, block_decomposition
from repro.core.database import Database
from repro.core.dependencies import FDSet, fd
from repro.core.facts import fact
from repro.core.queries import atom, boolean_cq, cq, var
from repro.core.schema import Schema
from repro.counting.survival import ground_survival_mur, ground_survival_mus
from repro.engine import EstimationSession
from repro.engine.session import LAWS
from repro.exact import ocqa
from repro.exact.ocqa import exact_ocqa, exact_operational_consistent_answers
from repro.workloads import block_database

x, y, z = var("x"), var("y"), var("z")

SCHEMA = Schema.from_spec({"R": ["A", "B"], "S": ["B", "C"]})
KEYS = FDSet(SCHEMA, [fd("R", "A", "B"), fd("S", "B", "C")])

#: Single-atom, multi-atom and self-join queries over ``SCHEMA``.
QUERIES = [
    cq((x,), (atom("R", x, y),)),
    cq((x,), (atom("R", x, y), atom("S", y, z))),
    cq((y,), (atom("R", x, y), atom("R", z, y))),
    boolean_cq(atom("R", x, y), atom("R", z, y), atom("S", y, 0)),
]

#: Per generator: the paper's floor (Lemmas 5.3, E.3, 6.3) and the exact
#: survival of a set of facts, stated directly rather than read from LAWS.
LAW_PARTS = {
    M_UR: (rrfreq_lower_bound, ground_survival_mur),
    M_UR1: (
        singleton_frequency_lower_bound,
        lambda *args: ground_survival_mur(*args, singleton_only=True),
    ),
    M_US: (srfreq_lower_bound, ground_survival_mus),
}


@st.composite
def key_instances(draw):
    """Up to six ``R`` facts and three ``S`` facts, both keyed on column one."""
    r_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
    s_pairs = st.tuples(st.integers(0, 2), st.integers(0, 1))
    r_facts = draw(st.sets(r_pairs, min_size=1, max_size=6))
    s_facts = draw(st.sets(s_pairs, max_size=3))
    facts = [fact("R", *values) for values in r_facts]
    facts += [fact("S", *values) for values in s_facts]
    return Database(facts, schema=SCHEMA)


def expected_bound(database, generator, query, witnesses) -> Fraction:
    """The exact rational a plan's bound is rounded down from."""
    floor, survival = LAW_PARTS[generator]
    consistent = [
        w for w in witnesses if KEYS.satisfied_by(Database(w, schema=SCHEMA))
    ]
    return max(
        [floor(database, query)]
        + [survival(database, KEYS, witness) for witness in consistent]
    )


class TestWitnessBoundIsValid:
    @given(database=key_instances(), which=st.integers(0, len(QUERIES) - 1))
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_floor_at_most_bound_at_most_probability(self, database, which):
        query = QUERIES[which]
        for generator in (M_UR, M_UR1, M_US, M_UO):
            session = EstimationSession(database, KEYS, generator)
            floor = session.positivity_bound(query)
            for answer in sorted(query.answers(database), key=repr):
                plan = session.plan(query, answer)
                if plan.kind == "possibility-zero":
                    if generator is not M_UO:
                        assert exact_ocqa(database, KEYS, generator, query, answer) == 0
                    continue
                if generator is M_UO:  # no exact survival: the paper's floor
                    assert plan.bound == floor
                    continue
                exact = exact_ocqa(database, KEYS, generator, query, answer)
                rational = expected_bound(
                    database, generator, query, session.witnesses(query, answer)
                )
                assert plan.bound == float_at_most(rational)
                assert Fraction(floor) <= rational <= exact
                assert Fraction(plan.bound) <= rational
                assert plan.budget == chernoff_sample_size(
                    plan.epsilon, plan.delta, plan.bound
                )


class TestRoundingTowardZero:
    def test_float_at_most_never_exceeds_its_fraction(self):
        tenth = Fraction(1, 10)
        assert float(tenth) > tenth  # round-to-nearest overshoots here
        assert float_at_most(tenth) == nextafter(0.1, 0.0)
        assert Fraction(float_at_most(tenth)) <= tenth
        third = Fraction(1, 3)
        assert float(third) < third  # already below: kept as is
        assert float_at_most(third) == float(third)
        assert float_at_most(Fraction(1, 4)) == 0.25  # exact: kept

    def test_one_witness_bound_equals_its_survival_rounded_down(self):
        # A block of four: R(a0, b0) survives M_ur with exactly 1/5, the
        # answer's probability, and float(1/5) lies above 1/5.
        database, constraints = block_database([4])
        query = boolean_cq(atom("R", "a0", "b0"))
        session = EstimationSession(database, constraints, M_UR)
        plan = session.plan(query, epsilon=0.2, delta=0.05)
        assert plan.bound == nextafter(0.2, 0.0)
        assert Fraction(plan.bound) < Fraction(1, 5)
        assert plan.budget == chernoff_sample_size(0.2, 0.05, nextafter(0.2, 0.0))

    def test_paper_bound_is_rounded_down_too(self):
        # Five facts, one atom: Lemma 5.3's floor is 1/10.
        database, constraints = block_database([2, 3])
        query = boolean_cq(atom("R", "a0", "b0"))
        session = EstimationSession(database, constraints, M_UO)
        assert session.positivity_bound(query) == nextafter(0.1, 0.0)
        assert session.plan(query).bound == nextafter(0.1, 0.0)


class TestCheapStructures:
    def test_block_of_reads_one_map(self):
        database, constraints = block_database([3, 1, 2])
        decomposition = block_decomposition(database, constraints)
        for block in decomposition:
            for member in block.facts:
                assert decomposition.block_of(member) is block
        with pytest.raises(BlockError, match="belongs to no block"):
            decomposition.block_of(fact("R", "a9", "b9"))

    @pytest.mark.parametrize("formula", [ground_survival_mur, ground_survival_mus])
    def test_survival_reads_a_given_decomposition(self, formula, monkeypatch):
        from repro.counting import survival

        database, constraints = block_database([3, 1, 2])
        decomposition = block_decomposition(database, constraints)
        facts = {fact("R", "a0", "b0"), fact("R", "a2", "b1")}
        expected = formula(database, constraints, facts)

        def no_decomposition(*args):
            raise AssertionError("the given decomposition must be used")

        monkeypatch.setattr(survival, "block_decomposition", no_decomposition)
        assert formula(database, constraints, facts, decomposition=decomposition) == (
            expected
        )

    def test_survivals_are_memoized_by_hit_block_sizes(self, monkeypatch):
        # Blocks a0 and a1 both hold three facts, so all six one-fact
        # witnesses hit the size multiset (3,): one survival computation.
        database, constraints = block_database([3, 3, 1])
        query = cq((x,), (atom("R", x, y),))
        calls = []
        law = LAWS["M_ur"]

        def counting(*args, **kwargs):
            calls.append(kwargs["decomposition"])
            return law.survival(*args, **kwargs)

        monkeypatch.setitem(LAWS, "M_ur", replace(law, survival=counting))
        session = EstimationSession(database, constraints, M_UR)
        bounds = [session.plan(query, (key,)).bound for key in ("a0", "a1", "a2")]
        assert bounds == [0.25, 0.25, 1.0]
        assert calls == [session.decomposition()] * 2  # sizes (3,) and ()


class TestExactAnswerTable:
    def test_local_generator_table_shares_one_engine(self, monkeypatch):
        schema = Schema.from_spec({"R": ["A", "B", "C"]})
        database = Database(
            [
                fact("R", 0, 0, 0),
                fact("R", 0, 1, 0),
                fact("R", 0, 1, 1),
                fact("R", 1, 0, 1),
                fact("R", 1, 2, 0),
                fact("R", 2, 0, 0),
            ],
            schema=schema,
        )
        constraints = FDSet(schema, [fd("R", "A", "B")])
        query = cq((x, y), (atom("R", x, y, z),))
        expected = {
            answer: exact_ocqa(database, constraints, M_UO, query, answer)
            for answer in query.answers(database)
        }
        built = []
        engine_class = ocqa.StateSpaceEngine

        class CountingEngine(engine_class):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ocqa, "StateSpaceEngine", CountingEngine)
        table = exact_operational_consistent_answers(
            database, constraints, M_UO, query
        )
        assert built == [1]
        assert table == {a: p for a, p in expected.items() if p > 0}
        assert all(isinstance(p, Fraction) for p in table.values())
