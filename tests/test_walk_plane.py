"""The walk plane's pool contract: sample ``i`` is a pure function of ``(seed, i)``.

Seeded ``M_uo`` pools, and ``M_uo,1`` pools beyond primary keys (on
keys ``M_uo,1`` shares ``M_ur,1``'s vector plane), draw on the walk
plane, whose one ``random.Random`` is reseeded with
``(seed mod 2**128) · 2**64 + i`` before sample ``i`` is drawn.  The
properties, for ``M_uo`` on primary keys and on two keys per relation,
and for ``M_uo,1`` on two keys per relation and on non-key FDs:

* rows grown in any sequence of chunks equal a fresh pool's rows;
* a pool warm-started from a persisted prefix of any length equals a
  cold one;
* row ``i`` is exactly one mask draw after that reseed — which pins the
  formula itself.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UO, M_UO1
from repro.core import Database, FDSet, Schema, fact, fd
from repro.engine import CacheStore, EstimationSession

PAIRS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=6, unique=True
)
SEEDS = st.integers(0, 2**140)


def primary_key(pairs):
    schema = Schema.from_spec({"R": ["A", "B"]})
    database = Database([fact("R", f"a{a}", f"b{b}") for a, b in pairs], schema=schema)
    return database, FDSet(schema, [fd("R", "A", "B")])


def two_keys(pairs):
    schema = Schema.from_spec({"R": ["A", "B"]})
    database = Database([fact("R", f"a{a}", f"b{b}") for a, b in pairs], schema=schema)
    return database, FDSet(schema, [fd("R", "A", "B"), fd("R", "B", "A")])


def non_key_fd(pairs):
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    database = Database(
        [fact("R", f"a{a}", f"b{b % 2}", f"c{b}") for a, b in pairs], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B")])


CASES = [
    (M_UO, primary_key),
    (M_UO, two_keys),
    (M_UO1, two_keys),
    (M_UO1, non_key_fd),
]
CASE_IDS = [f"{g.name}-{build.__name__}" for g, build in CASES]


def session_for(case, pairs, cache=None):
    generator, build = case
    database, constraints = build(pairs)
    return EstimationSession(database, constraints, generator, cache=cache)


def rows(pool, length):
    return pool.packed_prefix(length).tolist()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@settings(max_examples=15, deadline=None)
@given(pairs=PAIRS, seed=SEEDS, chunks=st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_rows_are_independent_of_the_growth_pattern(case, pairs, seed, chunks):
    session = session_for(case, pairs)
    grown = session.pool_for_seed(seed)
    for chunk in chunks:
        grown.ensure(len(grown) + chunk)
    total = len(grown)
    assert total == sum(chunks)  # one sample per batch: never past the ask
    assert rows(grown, total) == rows(session.pool_for_seed(seed), total)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@settings(max_examples=15, deadline=None)
@given(pairs=PAIRS, seed=SEEDS, persisted=st.integers(0, 12), extra=st.integers(0, 6))
def test_warm_from_any_persisted_length_equals_cold(case, pairs, seed, persisted, extra):
    generator, build = case
    database, constraints = build(pairs)
    total = persisted + extra
    with tempfile.TemporaryDirectory() as cache_dir:
        store = CacheStore(cache_dir)
        cold_entry = store.entry(database, constraints, generator.name, seed)
        session_for(case, pairs, cold_entry).cached_pool(seed).ensure(persisted)
        cold_entry.save()
        warm_entry = store.entry(database, constraints, generator.name, seed)
        assert warm_entry.load_error is None
        warm = session_for(case, pairs, warm_entry).cached_pool(seed)
        assert len(warm) == persisted  # the whole prefix came from disk
        warm_rows = rows(warm, total)
    assert warm_rows == rows(session_for(case, pairs).pool_for_seed(seed), total)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@settings(max_examples=15, deadline=None)
@given(pairs=PAIRS, seed=SEEDS, length=st.integers(1, 8))
def test_row_i_is_one_draw_after_the_reseed(case, pairs, seed, length):
    session = session_for(case, pairs)
    pool = session.pool_for_seed(seed)
    for position in range(length):
        rng = random.Random((seed % 2**128) << 64 | position)
        assert pool.mask_at(position) == session.index().mask_of(
            session.sampler(rng).sample().facts
        )
