"""Property-based tests (hypothesis) for the core invariants.

Strategy sizes are kept small: the properties compare polynomial formulas
against exponential brute force, so instances stay within a few facts/blocks.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UO, M_UO1, M_UR, M_US
from repro.chains.trust import TrustWeightedOperations
from repro.core.blocks import block_decomposition
from repro.core.database import Database
from repro.core.dependencies import FDSet, fd
from repro.core.facts import fact
from repro.core.graphs import conflict_graph
from repro.core.queries import atom, boolean_cq
from repro.core.schema import Schema
from repro.counting import (
    count_crs1_for_block_sizes,
    count_crs_for_block_sizes,
    count_crs_paper_dp,
)
from repro.exact import (
    candidate_repairs,
    candidate_repairs_bruteforce,
    count_candidate_repairs,
    count_complete_sequences,
    exact_ocqa,
    rrfreq,
    srfreq,
)
from repro.exact.state_space import StateSpaceEngine
from repro.sampling.operations_sampler import UniformOperationsSampler
from repro.sampling.repair_sampler import RepairSampler
from repro.sampling.sequence_sampler import SequenceSampler
from repro.workloads import block_database

# -- strategies ---------------------------------------------------------------------

block_sizes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
small_block_sizes = st.lists(
    st.integers(min_value=2, max_value=3), min_size=1, max_size=2
)


@st.composite
def small_fd_databases(draw):
    """A random database over R/3 with one or two FDs among the attributes."""
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    n_facts = draw(st.integers(min_value=1, max_value=5))
    facts = set()
    for _ in range(n_facts):
        values = draw(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            )
        )
        facts.add(fact("R", *values))
    which = draw(st.sampled_from(["A->B", "B->C", "both"]))
    if which == "A->B":
        fds = [fd("R", "A", "B")]
    elif which == "B->C":
        fds = [fd("R", "B", "C")]
    else:
        fds = [fd("R", "A", "B"), fd("R", "B", "C")]
    return Database(facts, schema=schema), FDSet(schema, fds)


# -- counting properties ----------------------------------------------------------------


@given(sizes=block_sizes)
@settings(max_examples=40, deadline=None)
def test_crs_dps_agree(sizes):
    assert count_crs_paper_dp(tuple(sizes)) == count_crs_for_block_sizes(tuple(sizes))


@given(sizes=small_block_sizes)
@settings(max_examples=25, deadline=None)
def test_crs_counts_match_state_space(sizes):
    database, constraints = block_database(sizes)
    assert count_crs_for_block_sizes(tuple(sizes)) == count_complete_sequences(
        database, constraints
    )


@given(sizes=small_block_sizes)
@settings(max_examples=25, deadline=None)
def test_crs1_counts_match_state_space(sizes):
    database, constraints = block_database(sizes)
    assert count_crs1_for_block_sizes(tuple(sizes)) == count_complete_sequences(
        database, constraints, singleton_only=True
    )


@given(sizes=block_sizes)
@settings(max_examples=40, deadline=None)
def test_repair_product_formula(sizes):
    database, constraints = block_database(sizes)
    decomposition = block_decomposition(database, constraints)
    assert decomposition.count_candidate_repairs() == prod(
        s + 1 for s in sizes if s >= 2
    )
    assert count_candidate_repairs(database, constraints) == (
        decomposition.count_candidate_repairs()
    )


# -- repair-set properties -----------------------------------------------------------------


@given(instance=small_fd_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_component_repairs_match_bruteforce(instance):
    database, constraints = instance
    assert set(candidate_repairs(database, constraints)) == (
        candidate_repairs_bruteforce(database, constraints)
    )


@given(instance=small_fd_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_singleton_repairs_match_bruteforce(instance):
    database, constraints = instance
    assert set(
        candidate_repairs(database, constraints, singleton_only=True)
    ) == candidate_repairs_bruteforce(database, constraints, singleton_only=True)


@given(instance=small_fd_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_repairs_are_independent_sets(instance):
    database, constraints = instance
    graph = conflict_graph(database, constraints)
    for repair in candidate_repairs(database, constraints):
        assert graph.is_independent(repair.facts)
        assert graph.isolated_nodes() <= repair.facts


@given(instance=small_fd_databases())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probabilities_form_distribution(instance):
    database, constraints = instance
    engine = StateSpaceEngine(database, constraints)
    distribution = engine.repair_distribution(M_UO)
    assert sum(distribution.values()) == Fraction(1)
    assert all(0 < p <= 1 for p in distribution.values())


@given(instance=small_fd_databases())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_frequencies_lie_in_unit_interval(instance):
    database, constraints = instance
    target = database.sorted_facts()[0]
    query = boolean_cq(atom("R", *target.values))
    for value in (
        rrfreq(database, constraints, query),
        srfreq(database, constraints, query),
        exact_ocqa(database, constraints, M_UO, query),
    ):
        assert 0 <= value <= 1


@given(
    instance=small_fd_databases(),
    trusts=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=4), min_size=5, max_size=5
    ),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exact_engines_match_explicit_chains(instance, trusts):
    database, constraints = instance
    target = database.sorted_facts()[0]
    query = boolean_cq(atom("R", *target.values))
    trust = TrustWeightedOperations.with_trust(dict(zip(database.sorted_facts(), trusts)))
    for generator, value in (
        (M_UR, rrfreq(database, constraints, query)),
        (M_US, srfreq(database, constraints, query)),
        (M_UO, exact_ocqa(database, constraints, M_UO, query)),
        (M_UO1, exact_ocqa(database, constraints, M_UO1, query)),
        (trust, exact_ocqa(database, constraints, trust, query)),
    ):
        chain = generator.chain(database, constraints, max_nodes=500_000)
        assert chain.answer_probability(query) == value, generator.name


@given(instance=small_fd_databases(), data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_uniform_operations_labels_follow_definition_a5(instance, data):
    """``M_uo`` puts ``1/|Ops|`` on every justified operation; ``M_uo,1``
    spreads it over the single-fact removals only.  ``Ops`` is rebuilt
    here from pairwise consistency checks, not from the library's own
    ``justified_operations``."""
    database, constraints = instance
    kept = data.draw(st.lists(st.sampled_from(database.sorted_facts()), unique=True))
    state = Database(kept, schema=database.schema)
    conflicts = {
        frozenset(pair)
        for pair in combinations(state.sorted_facts(), 2)
        if not constraints.satisfied_by(Database(pair, schema=database.schema))
    }
    singles = {frozenset((f,)) for pair in conflicts for f in pair}
    for generator, chosen in ((M_UO, singles | conflicts), (M_UO1, singles)):
        distribution = generator.operation_distribution(state, constraints)
        assert {op.removed for op in distribution} == singles | conflicts
        assert {op.removed: p for op, p in distribution.items() if p} == {
            removed: Fraction(1, len(chosen)) for removed in chosen
        }, generator.name


# -- sampler properties ---------------------------------------------------------------------


@given(sizes=small_block_sizes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_repair_sampler_outputs_valid(sizes, seed):
    database, constraints = block_database(sizes)
    sampler = RepairSampler(database, constraints, rng=random.Random(seed))
    repair = sampler.sample()
    assert repair <= database
    assert constraints.satisfied_by(repair)


@given(sizes=small_block_sizes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_sequence_sampler_outputs_complete(sizes, seed):
    database, constraints = block_database(sizes)
    sampler = SequenceSampler(database, constraints, rng=random.Random(seed))
    sampled = sampler.sample()
    assert sampled.is_complete(database, constraints)


@given(instance=small_fd_databases(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_walk_probability_positive_and_consistent(instance, seed):
    database, constraints = instance
    walker = UniformOperationsSampler(database, constraints, rng=random.Random(seed))
    result = walker.walk()
    assert constraints.satisfied_by(result.repair)
    assert 0 < result.probability <= 1
    assert result.sequence.is_complete(database, constraints)
