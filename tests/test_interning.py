"""Interned facts: id/mask structure and bit-for-bit parity.

Interning is *purely* a speedup: mask evaluation agrees with frozenset
evaluation, and the engine's results equal a reference loop kept in this
file (the seeded stream decoded to fact sets, frozenset witness tests) —
including through a warm :class:`~repro.engine.store.CacheStore`.  The
parity properties are hypothesis-driven over random primary-key
instances.
"""

import itertools
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.blocks import block_decomposition
from repro.core.interning import InstanceIndex, InterningError, mask_ids
from repro.core.violations import is_consistent
from repro.counting.survival import ground_survival_mur
from repro.approx.adaptive import SequentialEstimator
from repro.approx.bounds import float_at_most
from repro.approx.montecarlo import (
    EstimateResult,
    fixed_sample_estimate,
    stopping_rule_estimate,
)
from repro.engine import DEFAULT_BATCH_SIZE, BatchRequest, EstimationSession, batch_estimate
from repro.engine.batch import group_seed_for, run_group
from repro.core.queries import atom, boolean_cq, cq, var
from repro.sampling.rng import walk_seed
from repro.workloads import figure2_database

x, y = var("x"), var("y")

EPSILON, DELTA = 0.5, 0.2

def pk_instance(pairs) -> tuple[Database, FDSet]:
    """A primary-key instance over R(A, B) with key A → B.

    Facts sharing an ``A`` value form one block, so the drawn ``pairs``
    directly control the block-size multiset.
    """
    schema = Schema.from_spec({"R": ["A", "B"]})
    database = Database(
        [fact("R", f"a{a}", f"b{b}") for a, b in pairs], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B")])


instances = st.builds(
    pk_instance,
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4)),
        min_size=0,
        max_size=12,
        unique=True,
    ),
)
seeds = st.integers(0, 2**32 - 1)


class TestInstanceIndex:
    def test_ids_follow_canonical_sorted_order(self):
        database, constraints = figure2_database()
        index = InstanceIndex.of(database, constraints)
        assert list(index.facts) == database.sorted_facts()
        assert [index.id_of[f] for f in database.sorted_facts()] == list(
            range(len(database))
        )
        assert index.full_mask == (1 << len(database)) - 1

    def test_mask_round_trip(self):
        database, constraints = figure2_database()
        index = InstanceIndex.of(database, constraints)
        subset = frozenset(database.sorted_facts()[::2])
        mask = index.mask_of(subset)
        assert index.facts_of_mask(mask) == subset
        assert mask_ids(mask) == sorted(index.id_of[f] for f in subset)

    def test_foreign_fact_rejected(self):
        database, constraints = figure2_database()
        index = InstanceIndex.of(database, constraints)
        with pytest.raises(InterningError):
            index.mask_of([fact("R", "nope", "nope")])

    def test_blocks_match_decomposition_order(self):
        database, constraints = figure2_database()
        decomposition = block_decomposition(database, constraints)
        index = InstanceIndex.of(database, decomposition=decomposition)
        expected = [
            [index.id_of[f] for f in block.sorted_facts()]
            for block in decomposition.conflicting_blocks()
        ]
        assert [list(ids) for ids in index.conflicting_block_ids()] == expected
        assert index.facts_of_mask(index.always_kept_mask()) == (
            decomposition.singleton_facts()
        )

    def test_no_constraints_means_no_blocks(self):
        database, _ = figure2_database()
        index = InstanceIndex.of(database)
        assert index.conflicting_block_ids() == ()
        assert index.always_kept_mask() == 0
        assert len(index) == len(database)


def object_hit(session, query, answer):
    """Frozenset witness containment — no masks anywhere."""
    witnesses = session.witnesses(query, answer)
    return lambda facts: 1.0 if any(w <= facts for w in witnesses) else 0.0


def seeded_vector_draws(session, seed):
    """The facts of a seeded vector pool's samples, never read off its
    packed rows: a fresh ``session.plane(seed)`` draws the engine's
    batches, :meth:`decode_masks` builds each mask from the outcome matrix
    and :meth:`~repro.core.interning.InstanceIndex.facts_of_mask` names
    its facts."""
    plane = session.plane(seed)
    index = session.index()
    batches = itertools.count()
    pending = []

    def draw():
        if not pending:
            outcomes, _ = plane.draw_batch(next(batches), DEFAULT_BATCH_SIZE)
            pending.extend(reversed(plane.decode_masks(outcomes)))
        return index.facts_of_mask(pending.pop())

    return draw


def seeded_walk_draws(session, seed):
    """Object draws of a seeded walk-plane pool: the RNG is reseeded with
    ``walk_seed(seed, i)`` before sample ``i``, as the engine does."""
    rng = random.Random()
    sampler = session.sampler(rng)
    positions = itertools.count()

    def reseeded():
        rng.seed(walk_seed(seed, next(positions)))
        return sampler.sample().facts

    return reseeded


def seeded_draws(session, seed):
    """The seeded stream ``session.pool_for_seed(seed)`` holds, as facts."""
    if session.seeded_plane == "vector":
        return seeded_vector_draws(session, seed)
    return seeded_walk_draws(session, seed)


def rng_seed(seed):
    """The pool seed a per-call run draws from ``random.Random(seed)``."""
    return random.Random(seed).getrandbits(64)


def object_path_estimate(session, query, answer, draw, method="auto"):
    """The (ε, δ) loop over a stream of fact sets, with frozenset witness
    tests, run as the session's plan says."""
    plan = session.plan(query, answer, epsilon=EPSILON, delta=DELTA, method=method)
    if plan.kind == "possibility-zero":
        return EstimateResult(
            0.0, 0, EPSILON, DELTA, "possibility-zero", certified_zero=True
        )
    hit = object_hit(session, query, answer)
    if plan.kind == "fixed":
        return fixed_sample_estimate(lambda: hit(draw()), EPSILON, DELTA, plan.bound)
    return stopping_rule_estimate(lambda: hit(draw()), EPSILON, DELTA)


class TestSamplerDrawParity:
    """A pool's packed rows name the facts its plane's outcomes denote."""

    @pytest.mark.parametrize(
        "generator", [M_UR, M_UR1, M_US, M_US1], ids=lambda g: g.name
    )
    def test_session_pool_masks_denote_object_samples(self, generator):
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, generator)
        pool = session.pool(random.Random(11))
        draw = seeded_vector_draws(session, rng_seed(11))
        index = session.index()
        for position in range(20):
            facts = draw()
            mask = pool.mask_at(position)
            assert index.facts_of_mask(mask) == facts
            assert mask == index.mask_of(facts)
            assert is_consistent(Database(facts), constraints)


class TestKernelOnOffParity:
    """The engine's results equal a reference loop over the same samples.

    "Kernel off" is :func:`object_path_estimate` and friends above: the
    seeded stream decoded to fact sets, and frozenset witness tests.
    """

    def batch_requests(self, database, constraints, generator=M_UR):
        query = cq((x,), (atom("R", x, y),))
        return [
            BatchRequest(
                database,
                constraints,
                generator,
                query,
                answer=candidate,
                epsilon=EPSILON,
                delta=DELTA,
            )
            for candidate in sorted(query.answers(database), key=repr)
        ]

    def object_path_rows(self, database, constraints, requests, seed, generator=M_UR):
        # Every request of a group reads the pool seeded with the group
        # seed from position zero: one fresh seeded stream each.
        session = EstimationSession(database, constraints, generator)
        group_seed = group_seed_for(seed, database, constraints, generator)
        return [
            object_path_estimate(
                session, r.query, r.answer, seeded_draws(session, group_seed)
            )
            for r in requests
        ]

    @given(instance=instances, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_batch_estimate_matches_with_kernel_on_and_off(self, instance, seed):
        # The batch group path over a seeded vector pool, against its
        # decoded stream.
        database, constraints = instance
        requests = self.batch_requests(database, constraints)
        session = EstimationSession(database, constraints, M_UR)
        group_seed = group_seed_for(seed, database, constraints, M_UR)
        pool = session.pool_for_seed(group_seed)
        on = run_group(session, pool, requests)
        assert all(r.ok for r in on)
        off = self.object_path_rows(database, constraints, requests, seed)
        assert [r.result for r in on] == off

    @given(instance=instances, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_kernel_parity_through_a_warm_cache_store(self, instance, seed):
        # M_uo groups draw on the walk plane, reseeded per sample, so a
        # cold-then-warm batch resumes a persisted walk prefix by position.
        database, constraints = instance
        requests = self.batch_requests(database, constraints, M_UO)
        off = self.object_path_rows(database, constraints, requests, seed, M_UO)
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = batch_estimate(requests, seed=seed, cache_dir=cache_dir)
            warm = batch_estimate(requests, seed=seed, cache_dir=cache_dir)
        for results in (cold, warm):
            assert [r.result for r in results] == off

    @pytest.mark.parametrize(
        "generator", [M_UR, M_UR1, M_US, M_US1, M_UO, M_UO1], ids=lambda g: g.name
    )
    def test_session_estimates_match_with_kernel_on_and_off(self, generator):
        database, constraints = figure2_database()
        query = boolean_cq(atom("R", "a1", "b1"))
        session = EstimationSession(database, constraints, generator)
        assert session.estimate(
            query, epsilon=EPSILON, delta=DELTA, rng=random.Random(3)
        ) == object_path_estimate(
            session, query, (), seeded_draws(session, rng_seed(3))
        )
        budget = session.fixed_budget(query, samples=200, rng=random.Random(5))
        draw = seeded_draws(session, rng_seed(5))
        hit = object_hit(session, query, ())
        hits = sum(hit(draw()) for _ in range(200))
        # ε/δ are NaN on fixed-budget results (and NaN != NaN): compare the
        # meaningful fields.  No positivity bound sized the budget, so even
        # an all-miss run certifies no zero.
        assert (
            budget.estimate,
            budget.samples_used,
            budget.method,
            budget.certified_zero,
        ) == (hits / 200, 200, "fixed-budget", False)

    def test_adaptive_estimates_match_with_kernel_on_and_off(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        candidates = sorted(query.answers(database), key=repr)
        session = EstimationSession(database, constraints, M_UR)
        pool = session.pool(random.Random(7))
        on = [
            session.estimate_adaptive(
                query, c, epsilon=EPSILON, delta=DELTA, pool=pool
            )
            for c in candidates
        ]
        # Each request reads one shared seeded stream from position zero.
        draw, stream = seeded_draws(session, rng_seed(7)), []
        off = []
        for candidate in candidates:
            hit = object_hit(session, query, candidate)
            # The answer's bound: its likeliest witness's exact survival.
            survivals = (
                float_at_most(ground_survival_mur(database, constraints, w))
                for w in session.witnesses(query, candidate)
            )
            p_lower = max(session.positivity_bound(query), *survivals)
            estimator = SequentialEstimator(EPSILON, DELTA, p_lower=p_lower)
            position = 0
            while not estimator.decided:
                while len(stream) <= position:
                    stream.append(draw())
                estimator.offer(hit(stream[position]))
                position += 1
            off.append(estimator.result())
        assert on == off

    def test_witness_masks_agree_with_witness_sets(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        session = EstimationSession(database, constraints, M_UR)
        index = session.index()
        for candidate in sorted(query.answers(database), key=repr):
            masks = session.witness_masks(query, candidate)
            witnesses = session.witnesses(query, candidate)
            assert masks == tuple(index.mask_of(w) for w in witnesses)
            sampler = session.sampler(random.Random(13))
            for _ in range(20):
                repair = sampler.sample()
                sample = index.mask_of(repair.facts)
                assert any(w & sample == w for w in masks) == query.entails(
                    repair, candidate
                )
