"""Vectorized sample plane: decode parity, packed pools, store round trips.

The vector plane's contract is *plane-internal determinism plus exactness
of everything downstream of the draw*: outcome matrices decoded through
the scalar mask construction must equal the packed rows bit-for-bit, hit
counting over packed rows must equal scalar hit counting, and store
entries must replay vector runs exactly — while the plane a run uses is
the session's choice, never the cache's.
"""

import base64
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.fpras import fpras_ocqa
from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, cq, var
from repro.counting.crs_count import (
    aggregated_step_weights,
    sequence_step_cumulative,
    sequence_step_weights,
)
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    STORE_VERSION,
    BatchRequest,
    EstimationSession,
    SamplePool,
    batch_estimate,
)
from repro.engine.batch import run_group
from repro.engine.session import _PoolEvaluator
from repro.sampling.rng import CumulativeWeights, weighted_choice
from repro.sampling import vectorized
from repro.workloads import figure2_database
from test_store import write_scalar_entry

x, y = var("x"), var("y")

EPSILON, DELTA = 0.5, 0.2

BLOCK_GENERATORS = [M_UR, M_UR1, M_US, M_US1]


def pk_instance(pairs) -> tuple[Database, FDSet]:
    """A primary-key instance over R(A, B) with key A → B."""
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


def fig2_requests(generator=M_UR):
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=c,
            epsilon=EPSILON,
            delta=DELTA,
        )
        for c in sorted(query.answers(database), key=repr)
    ]


class TestCumulativeWeights:
    def test_matches_weighted_choice_stream_and_result(self):
        items = ["a", "b", "c", "d"]
        weights = [3, 1, 0, 5]
        table = CumulativeWeights(weights)
        one, two = random.Random(9), random.Random(9)
        for _ in range(200):
            assert table.choice(items, one) == weighted_choice(items, weights, two)
        assert one.getstate() == two.getstate()

    def test_rejects_degenerate_tables(self):
        with pytest.raises(ValueError):
            CumulativeWeights([])
        with pytest.raises(ValueError):
            CumulativeWeights([0, 0])
        with pytest.raises(ValueError):
            CumulativeWeights([1]).choice(["a", "b"], random.Random(0))

    def test_sequence_step_cumulative_mirrors_weights(self):
        for sizes in [(2,), (3,), (3, 2), (2, 2, 3)]:
            for singleton in (False, True):
                categories, cumulative = sequence_step_cumulative(sizes, singleton)
                reference, weights, total = sequence_step_weights(sizes, singleton)
                assert categories == reference
                assert cumulative.total == total
                assert list(cumulative.cumulative) == [
                    sum(weights[: i + 1]) for i in range(len(weights))
                ]


class TestAggregatedWeights:
    def test_aggregation_matches_per_position_table(self):
        from collections import Counter

        for sizes in [(2,), (3,), (3, 2), (3, 3), (2, 3, 3), (2, 2, 2, 3)]:
            for singleton in (False, True):
                categories, weights, total = sequence_step_weights(sizes, singleton)
                by_class: dict[tuple[int, int], int] = {}
                for (position, kind), weight in zip(categories, weights):
                    key = (sizes[position], 1 if kind == "single" else 2)
                    by_class[key] = by_class.get(key, 0) + weight
                size_counts = tuple(sorted(Counter(sizes).items()))
                agg_categories, agg_weights, agg_total = aggregated_step_weights(
                    size_counts, singleton
                )
                assert agg_total == total
                assert {
                    (size, removed): weight
                    for (size, removed, _), weight in zip(agg_categories, agg_weights)
                } == by_class
                # Every category's live-block count is the multiset count.
                assert all(
                    count == dict(size_counts)[size]
                    for size, _, count in agg_categories
                )

    def test_float_cumulative_probabilities_are_correctly_rounded(self):
        from fractions import Fraction

        from repro.sampling.vectorized import _cumulative_probabilities

        size_counts = ((2, 3), (3, 5))
        categories, probabilities = _cumulative_probabilities(size_counts)
        _, weights, total = aggregated_step_weights(size_counts)
        running = 0
        for probability, weight in zip(probabilities, weights):
            running += weight
            exact = Fraction(running, total)
            assert probability == float(exact)
            assert abs(probability - exact) <= Fraction(1, 2**52)
        assert probabilities[-1] == 1.0


class TestDecodeParity:
    """Packed rows, outcome decode, and hit flags all agree bit-for-bit."""

    @given(instance=instances, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_repair_plane_scatter_matches_scalar_decode(self, instance, seed):
        database, constraints = instance
        for generator in (M_UR, M_UR1):
            session = EstimationSession(database, constraints, generator)
            plane = vectorized.VectorRepairPlane(session, seed)
            outcomes, rows = plane.draw_batch(0, 64)
            assert vectorized.unpack_rows(rows) == plane.decode_masks(outcomes)

    @given(instance=instances, seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_sequence_plane_scatter_matches_scalar_decode(self, instance, seed):
        database, constraints = instance
        session = EstimationSession(database, constraints, M_US)
        plane = vectorized.VectorSequencePlane(session, seed)
        outcomes, rows = plane.draw_batch(0, 64)
        masks = vectorized.unpack_rows(rows)
        assert masks == plane.decode_masks(outcomes)
        # Sequence invariant: a block survives with one fact or none.
        for mask in masks:
            for block in session.index().conflicting_block_ids():
                survivors = sum(1 for identifier in block if mask >> identifier & 1)
                assert survivors <= 1

    @given(instance=instances, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_batched_hit_flags_match_scalar_hit_tests(self, instance, seed):
        database, constraints = instance
        session = EstimationSession(database, constraints, M_UR)
        plane = vectorized.VectorRepairPlane(session, seed)
        _, rows = plane.draw_batch(0, 64)
        masks = vectorized.unpack_rows(rows)
        rng = random.Random(seed)
        n = len(session.index())
        singles = rng.getrandbits(n) if n else 0
        complexes = tuple(
            mask
            for mask in (rng.getrandbits(n) for _ in range(3))
            if mask and mask & (mask - 1)
        )
        for always in (False, True):
            packed = vectorized.pack_witnesses(witness_list(singles, complexes, always))
            flags = vectorized.batch_hit_flags(rows, packed)
            expected = [
                always
                or bool(mask & singles)
                or any(w & mask == w for w in complexes)
                for mask in masks
            ]
            assert list(flags) == expected

    def test_state_grouping_paths_agree(self):
        # The bit-packed fast path and the row-wise fallback must group
        # identically (the fallback guards >63-bit states).
        import numpy as np

        database, constraints = pk_instance([(a, b) for a in range(4) for b in range(3)])
        session = EstimationSession(database, constraints, M_US)
        plane = vectorized.VectorSequencePlane(session, 1)
        rng = np.random.default_rng(0)
        counts = rng.integers(0, plane.n_blocks + 1, size=(100, 2))
        fast_states, fast_membership = plane._group_states(counts)
        slow_states, slow_membership = np.unique(counts, axis=0, return_inverse=True)
        assert {tuple(map(int, s)) for s in fast_states} == {
            tuple(map(int, s)) for s in slow_states
        }
        # Same rows grouped together, whatever the representative order.
        fast_of_row = [tuple(map(int, fast_states[m])) for m in fast_membership]
        slow_of_row = [tuple(map(int, slow_states[m])) for m in slow_membership.reshape(-1)]
        assert fast_of_row == slow_of_row

    def test_sequence_plane_on_wide_deep_instances(self):
        # Many blocks of large size: exercises the live-size state keying
        # far beyond what the hypothesis instances reach (a previous
        # integer encoding of the state could overflow and collide here).
        pairs = [(a, b) for a in range(24) for b in range(10)]
        database, constraints = pk_instance(pairs)
        session = EstimationSession(database, constraints, M_US)
        plane = vectorized.VectorSequencePlane(session, 5)
        outcomes, rows = plane.draw_batch(0, 48)
        masks = vectorized.unpack_rows(rows)
        assert masks == plane.decode_masks(outcomes)
        for mask in masks:
            for block in session.index().conflicting_block_ids():
                survivors = sum(1 for identifier in block if mask >> identifier & 1)
                assert survivors <= 1

    @pytest.mark.parametrize("generator", BLOCK_GENERATORS, ids=lambda g: g.name)
    def test_vector_estimates_equal_decode_parity_recount(self, generator):
        """The acceptance harness: estimates from the packed plane equal
        estimates recomputed from the decoded outcome matrices."""
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        candidates = sorted(query.answers(database), key=repr)
        samples = 2 * DEFAULT_BATCH_SIZE

        session = EstimationSession(database, constraints, generator)
        pool = session.pool_for_seed(17)
        vector_estimates = [
            session.fixed_budget_pooled(pool, query, c, samples=samples).estimate
            for c in candidates
        ]

        replay = EstimationSession(database, constraints, generator)
        plane = replay.plane(17)
        masks: list[int] = []
        batch = 0
        while len(masks) < samples:
            outcomes, _ = plane.draw_batch(batch, DEFAULT_BATCH_SIZE)
            masks.extend(plane.decode_masks(outcomes))
            batch += 1
        masks = masks[:samples]
        decoded_estimates = [
            sum(
                1
                for mask in masks
                if any(
                    w & mask == w for w in replay.witness_masks(query, candidate)
                )
            )
            / samples
            for candidate in candidates
        ]
        assert vector_estimates == decoded_estimates


def witness_list(singles, complexes, always):
    """The witness masks with single-fact union ``singles``, the multi-fact
    ``complexes`` and (when ``always``) the empty witness."""
    bits = [1 << i for i in range(singles.bit_length()) if singles >> i & 1]
    return bits + list(complexes) + ([0] if always else [])


@st.composite
def hit_cases(draw):
    """Packed rows of 0–4 words plus witnesses aimed at them.

    Multi-fact witnesses include pairs straddling a word boundary
    (facts ``64k - 1`` and ``64k``), and rows are drawn as raw words,
    supersets of a witness, or a witness with one of its bits cleared,
    so hits and near misses both occur.
    """
    words = draw(st.integers(0, 4))
    n = vectorized.WORD_BITS * words
    singles = 0
    complexes = []
    if n:
        facts = st.integers(0, n - 1)
        for identifier in draw(st.sets(facts, max_size=5)):
            singles |= 1 << identifier
        witnesses = st.sets(facts, min_size=2, max_size=4)
        if words > 1:
            straddling = st.builds(
                lambda k, extra: {64 * k - 1, 64 * k} | extra,
                st.integers(1, words - 1),
                st.sets(facts, max_size=2),
            )
            witnesses = st.one_of(straddling, witnesses)
        complexes = [
            sum(1 << identifier for identifier in witness)
            for witness in draw(st.lists(witnesses, max_size=3))
        ]
    masks = []
    for _ in range(draw(st.integers(0, 12))):
        mask = draw(st.integers(0, (1 << n) - 1))
        if complexes and draw(st.booleans()):
            witness = draw(st.sampled_from(complexes))
            mask |= witness
            if draw(st.booleans()):
                bit = draw(st.sampled_from([i for i in range(n) if witness >> i & 1]))
                mask &= ~(1 << bit)
        masks.append(mask)
    return words, vectorized.pack_masks(masks, words), singles, tuple(complexes)


class TestWordSupportHitFlags:
    """Hit counting over witness word supports equals the full-row test."""

    @given(case=hit_cases(), always=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_flags_equal_full_row_reduction(self, case, always):
        import numpy as np

        words, rows, singles, complexes = case
        # The full-row reduction, over every word of every row.
        singles_row = vectorized.pack_masks([singles], words)[0]
        expected = (rows & singles_row).any(axis=1) | always
        for witness_row in vectorized.pack_masks(complexes, words):
            expected |= ((rows & witness_row) == witness_row).all(axis=1)

        packed = vectorized.pack_witnesses(witness_list(singles, complexes, always))
        flags = vectorized.batch_hit_flags(rows, packed)
        assert flags.dtype == np.bool_ and flags.shape == (rows.shape[0],)
        assert flags.tolist() == expected.tolist()

    def test_support_holds_only_non_zero_words(self):
        singles, complexes = vectorized.pack_witnesses([1 << 3, 1 << 63 | 1 << 64, 1 << 130])
        assert [(word, int(value)) for word, value in singles] == [(0, 8), (2, 4)]
        assert [[(word, int(value)) for word, value in support] for support in complexes] == [
            [(0, 1 << 63), (1, 1)]
        ]

    def test_empty_witness_hits_every_row(self):
        rows = vectorized.pack_masks([0, 1 << 5, 1 << 70], 2)
        packed = vectorized.pack_witnesses([0, 1 << 5])
        assert packed[1] == ((),)  # no words to test: contained in every row
        assert vectorized.batch_hit_flags(rows, packed).tolist() == [True] * 3

    def test_evaluator_matches_recount_on_straddling_witnesses(self):
        # 70 R facts then 70 S facts: 140 facts, 3 words.  A witness
        # {R(a, b), S(b, c)} pairs a word-0/1 R fact with a word-1/2 S
        # fact, so most witnesses straddle a word boundary.
        schema = Schema.from_spec({"R": ["A", "B"], "S": ["B", "C"]})
        facts = [fact("R", f"a{i // 2}", f"b{i % 7}") for i in range(70)]
        facts += [fact("S", f"b{i // 10}", f"c{i % 10}") for i in range(70)]
        database = Database(facts, schema=schema)
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("S", "B", "C")])
        assert len(database) == 140
        session = EstimationSession(database, constraints, M_UR)
        z = var("z")
        query = cq((x,), (atom("R", x, y), atom("S", y, z)))
        reference = session.pool_for_seed(11)
        assert reference.words == 3
        length = 2 * DEFAULT_BATCH_SIZE + 37
        rows = vectorized.unpack_rows(reference.packed_prefix(length))
        spans = set()
        for answer in sorted(query.answers(database), key=repr):
            masks = session.witness_masks(query, answer)
            spans |= {
                tuple(sorted({i // 64 for i in range(140) if mask >> i & 1}))
                for mask in masks
            }
            expected = [any(mask & row == mask for mask in masks) for row in rows]
            # Per-position growth on a fresh pool, batch by batch.
            evaluator = _PoolEvaluator(
                session, session.pool_for_seed(11), query, answer
            )
            assert [evaluator.flag(i) for i in range(length)] == expected
            # Chunked count() growth, drawing as it goes.
            counting = _PoolEvaluator(
                session, session.pool_for_seed(11), query, answer
            )
            for chunk in (1, 100, 511, 513, 1024, length):
                assert counting.count(chunk) == sum(expected[:chunk])
        assert {(0, 1), (0, 2), (1, 2)} <= spans


class TestVectorPools:
    def test_accessors_agree_with_packed_rows(self):
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, M_UR)
        pool = SamplePool(session.plane(3), batch_size=8)
        prefix = vectorized.unpack_rows(pool.packed_prefix(20))
        assert len(pool) == 24  # whole batches
        assert [pool.mask_at(i) for i in range(20)] == prefix
        replay = session.plane(3)
        redrawn = [replay.draw_batch(b, 8)[1] for b in range(3)]
        assert prefix == [m for rows in redrawn for m in vectorized.unpack_rows(rows)][:20]

    def test_prefix_views_are_cached_until_growth(self):
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, M_UR)
        for pool in (session.pool_for_seed(3), session.pool(random.Random(3))):
            first = pool.packed_prefix(10)
            drawn = len(pool)
            again = pool.packed_prefix(10)
            # No rebuild, no redraw: both views read the same matrix.
            assert len(pool) == drawn and (again == first).all()
            assert vectorized.np.shares_memory(first, again)
            assert not first.flags.writeable
            longer = pool.packed_prefix(12)
            assert (longer[:10] == first).all()

    def test_same_seed_same_stream_regardless_of_growth_pattern(self):
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, M_US)
        eager = SamplePool(session.plane(11), batch_size=16)
        lazy = SamplePool(session.plane(11), batch_size=16)
        eager.ensure(48)
        for position in (0, 7, 31, 40):
            assert lazy.mask_at(position) == eager.mask_at(position)

    def test_pool_requires_exactly_one_backing(self):
        # One backing: a plane with draw_batch; there is no draw= thunk.
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, M_UR)
        with pytest.raises(TypeError):
            SamplePool()
        with pytest.raises(TypeError):
            SamplePool(draw=lambda: 0)
        with pytest.raises(TypeError):
            SamplePool(session.index(), session.plane(1))
        with pytest.raises(ValueError, match="whole batches"):
            SamplePool(
                session.plane(1),
                batch_size=4,
                preloaded_rows=vectorized.np.zeros((3, 1), dtype="<u8"),
            )


class TestBackendResolution:
    def test_auto_prefers_vector_for_block_generators(self):
        database, constraints = figure2_database()
        for generator in (M_UR, M_UR1, M_US, M_US1):
            session = EstimationSession(database, constraints, generator)
            assert session.seeded_plane == "vector"
            pool = session.pool_for_seed(5)
            assert isinstance(pool.plane, vectorized._BlockPlane)
            assert pool.batch_size == DEFAULT_BATCH_SIZE

    def test_walk_generators_stay_scalar(self):
        database, constraints = figure2_database()
        walk = EstimationSession(database, constraints, M_UO)
        assert walk.seeded_plane == "scalar"
        pool = walk.pool_for_seed(5)
        assert not isinstance(pool.plane, vectorized._BlockPlane)
        assert pool.batch_size == 1
        assert type(walk.plane(5)) is type(pool.plane)

    def test_unknown_backend_rejected_everywhere(self):
        # The generator alone picks the plane: there is no knob to pass.
        database, constraints = figure2_database()
        with pytest.raises(TypeError, match="backend"):
            EstimationSession(database, constraints, M_UR, backend="vector")
        with pytest.raises(TypeError, match="backend"):
            batch_estimate(fig2_requests(), seed=1, backend="scalar")

    @pytest.mark.parametrize(
        "generator", [M_UR, M_UR1, M_US, M_US1, M_UO, M_UO1], ids=lambda g: g.name
    )
    def test_rng_driven_pools_draw_on_the_laws_plane(self, generator):
        # A caller's random.Random only seeds the law's own pool: on keys
        # M_us,1 and M_uo,1 draw M_ur,1's vector plane, M_uo the walk.
        database, constraints = figure2_database()
        session = EstimationSession(database, constraints, generator)
        pool = session.pool(random.Random(1))
        vector = generator is not M_UO
        assert isinstance(pool.plane, vectorized._BlockPlane) == vector
        assert pool.batch_size == (DEFAULT_BATCH_SIZE if vector else 1)
        seeded = session.pool_for_seed(random.Random(1).getrandbits(64))
        assert (pool.packed_prefix(600) == seeded.packed_prefix(600)).all()
        query = cq((x,), (atom("R", x, y),))
        per_call = fpras_ocqa(
            database,
            constraints,
            generator,
            query,
            ("a1",),
            epsilon=EPSILON,
            delta=DELTA,
            rng=random.Random(1),
        )
        assert per_call == session.estimate_pooled(
            seeded, query, ("a1",), epsilon=EPSILON, delta=DELTA
        )


class TestStoreV3:
    def entry_document(self, cache_dir):
        (name,) = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
        with open(os.path.join(cache_dir, name)) as handle:
            return json.load(handle), os.path.join(cache_dir, name)

    def test_vector_entries_round_trip_warm(self, tmp_path):
        requests = fig2_requests()
        cold = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        document, _ = self.entry_document(str(tmp_path))
        assert document["version"] == STORE_VERSION
        assert document["batch"] == DEFAULT_BATCH_SIZE
        assert "backend" not in document and "rng_state" not in document
        rows = len(base64.b64decode(document["samples"])) // (8 * document["words"])
        assert rows and rows % DEFAULT_BATCH_SIZE == 0
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in warm] == [r.result for r in cold]
        assert [r.result for r in plain] == [r.result for r in cold]

    def test_warm_vector_run_draws_nothing_anew(self, tmp_path, monkeypatch):
        requests = fig2_requests()
        batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        calls = []
        original = vectorized._BlockPlane.draw_batch

        def counting(self, batch_index, size):
            calls.append(batch_index)
            return original(self, batch_index, size)

        monkeypatch.setattr(vectorized._BlockPlane, "draw_batch", counting)
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert all(r.ok for r in warm)
        assert calls == []  # the whole prefix came from disk

    def test_foreign_batch_size_discards_and_recovers(self, tmp_path):
        requests = fig2_requests()
        baseline = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        document, path = self.entry_document(str(tmp_path))
        document["batch"] = DEFAULT_BATCH_SIZE + 1
        json.dump(document, open(path, "w"))
        damaged = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert [r.result for r in damaged] == [r.result for r in baseline]
        rewritten, _ = self.entry_document(str(tmp_path))
        assert rewritten["batch"] == DEFAULT_BATCH_SIZE

    def test_v2_entry_with_corrupt_rows_loads_as_a_clean_miss(self, tmp_path):
        from repro.engine import CacheStore, fsck_store
        from repro.engine.batch import group_seed_for

        # An M_uo (walk-plane) entry: v2 entries persisted an RNG state.
        requests = fig2_requests(M_UO)
        baseline = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        document, path = self.entry_document(str(tmp_path))
        v2 = {
            "version": 2,
            "decomposition": None,
            "possibility": {},  # v2-v6 entries persisted zero-test verdicts
            "bounds": {},
            "samples": [[0, 999999]],  # out-of-range v2 id
            "rng_state": [3, [0] * 625, None],
        }
        with open(path, "w") as handle:
            json.dump(v2, handle)
        report = fsck_store(str(tmp_path))
        assert [row["detail"] for row in report.entries] == [
            "unknown store version 2"
        ]
        # The bad rows are never decoded: the entry is a plain miss.
        database, constraints = figure2_database()
        seed = group_seed_for(7, database, constraints, M_UO)
        entry = CacheStore(str(tmp_path)).entry(database, constraints, "M_uo", seed)
        assert entry.path == path
        assert entry.load_error is None
        assert len(entry.sample_word_rows()) == 0
        recovered = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert [r.result for r in recovered] == [r.result for r in baseline]
        rewritten, _ = self.entry_document(str(tmp_path))
        assert rewritten["version"] == STORE_VERSION
        assert fsck_store(str(tmp_path)).ok

    def test_auto_plane_ignores_a_scalar_written_cache(self, tmp_path):
        # The plane is the generator's choice, never the cache's: an M_ur
        # run over a scalar-written cache_dir equals a cache-less run.
        requests = fig2_requests()
        plain = batch_estimate(requests, seed=5)
        write_scalar_entry(tmp_path, 5, 40).save()
        auto = batch_estimate(requests, seed=5, cache_dir=str(tmp_path))
        assert [r.result for r in auto] == [r.result for r in plain]
        rewritten, _ = self.entry_document(str(tmp_path))
        assert rewritten["batch"] == DEFAULT_BATCH_SIZE

    def test_served_auto_plane_ignores_a_scalar_written_cache(self, tmp_path):
        from repro.service import SessionRegistry

        requests = fig2_requests()
        plain = batch_estimate(requests, seed=5)
        write_scalar_entry(tmp_path, 5, 40).save()
        registry = SessionRegistry(seed=5, cache_dir=str(tmp_path))
        try:
            served = registry.estimate(requests)
        finally:
            registry.close()
        assert [r.result for r in served] == [r.result for r in plain]

    def test_scalar_plane_discards_a_vector_prefix(self, tmp_path):
        from repro.engine import CacheStore
        from repro.engine.batch import group_seed_for

        # A vector-drawn prefix under the M_uo key (only reachable by a
        # foreign writer): its batch size is foreign to the walk plane, so
        # the M_uo pool must redraw, not extend.
        database, constraints = figure2_database()
        seed = group_seed_for(7, database, constraints, M_UO)
        entry = CacheStore(str(tmp_path)).entry(database, constraints, "M_uo", seed)
        pool = EstimationSession(database, constraints, M_UR).pool_for_seed(seed)
        entry.attach_pool(pool)
        pool.ensure(DEFAULT_BATCH_SIZE)
        entry.save()
        requests = fig2_requests(M_UO)
        scalar = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in scalar] == [r.result for r in plain]
        rewritten, _ = self.entry_document(str(tmp_path))
        assert rewritten["batch"] == 1


class TestVectorEstimationParity:
    """Fixed, dklr, adaptive: batched evaluation equals per-position logic."""

    @pytest.mark.parametrize("generator", BLOCK_GENERATORS, ids=lambda g: g.name)
    def test_pooled_paths_agree_on_one_vector_pool(self, generator):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        candidates = sorted(query.answers(database), key=repr)
        session = EstimationSession(database, constraints, generator)
        pool = session.pool_for_seed(23)
        fixed = [
            session.estimate_pooled(
                pool, query, c, epsilon=EPSILON, delta=DELTA, method="fixed"
            )
            for c in candidates
        ]
        # The same pool is re-read with the stopping rule and the adaptive
        # estimator; all three must see the same hit stream.
        dklr = [
            session.estimate_pooled(
                pool, query, c, epsilon=EPSILON, delta=DELTA, method="dklr"
            )
            for c in candidates
        ]
        adaptive = [
            session.estimate_adaptive(
                query, c, epsilon=EPSILON, delta=DELTA, pool=pool
            )
            for c in candidates
        ]
        for position, candidate in enumerate(candidates):
            masks = session.witness_masks(query, candidate)
            reference = [
                any(w & pool.mask_at(i) == w for w in masks)
                for i in range(fixed[position].samples_used)
            ]
            expected = sum(reference) / len(reference)
            assert fixed[position].estimate == expected
            assert 0 <= dklr[position].estimate <= 1
            assert adaptive[position].samples_used <= len(pool)

    def test_run_group_modes_are_reproducible_on_vector_pools(self):
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = [
            BatchRequest(
                database, constraints, M_UR, query, c, epsilon=EPSILON, delta=DELTA
            )
            for c in sorted(query.answers(database), key=repr)
        ]
        session = EstimationSession(database, constraints, M_UR)
        for mode in ("fixed", "adaptive"):
            first = run_group(session, session.pool_for_seed(29), requests, mode)
            second = run_group(session, session.pool_for_seed(29), requests, mode)
            assert all(row.ok for row in first)
            assert first == second


class TestPhiloxSubstreamIndependence:
    """The vector plane's seed contract: keyed streams, counter substreams.

    ``philox_key`` must map distinct workload seeds to distinct 128-bit
    keys, and ``numpy_substream`` must give pairwise-distinct,
    order-independent draws across stream indices — the property that
    lets batches be drawn in any order (or in parallel) while remaining
    bit-identical to a sequential run.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        seed_values=st.lists(
            st.integers(0, 2**64 - 1), min_size=2, max_size=8, unique=True
        )
    )
    def test_philox_keys_pairwise_distinct(self, seed_values):
        from repro.sampling.rng import philox_key

        keys = [tuple(philox_key(seed)) for seed in seed_values]
        assert len(set(keys)) == len(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        streams=st.lists(
            st.integers(0, 2**20), min_size=2, max_size=6, unique=True
        ),
    )
    def test_substreams_pairwise_distinct(self, seed, streams):
        from repro.sampling.rng import numpy_substream

        draws = {
            stream: tuple(
                numpy_substream(seed, stream).integers(0, 2**63, size=8)
            )
            for stream in streams
        }
        assert len(set(draws.values())) == len(streams)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        streams=st.lists(
            st.integers(0, 2**20), min_size=2, max_size=6, unique=True
        ),
        permutation=st.randoms(use_true_random=False),
    )
    def test_substreams_order_independent(self, seed, streams, permutation):
        from repro.sampling.rng import numpy_substream

        def draw_all(order):
            return {
                stream: tuple(
                    numpy_substream(seed, stream).integers(0, 2**63, size=8)
                )
                for stream in order
            }

        in_order = draw_all(streams)
        shuffled = list(streams)
        permutation.shuffle(shuffled)
        assert draw_all(shuffled) == in_order

    def test_key_reuse_matches_fresh_key(self):
        from repro.sampling.rng import numpy_substream, philox_key

        key = philox_key(123)
        with_key = numpy_substream(123, 5, key=key).integers(0, 2**63, size=8)
        fresh = numpy_substream(123, 5).integers(0, 2**63, size=8)
        assert list(with_key) == list(fresh)
