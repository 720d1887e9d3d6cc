"""Property test: two-writer merge is lossless under interrupted saves.

The PR 5 two-writer contract (concurrent saves merge, never clobber)
must survive the durability plane: if writer B's save is killed at *any*
fault point of a seeded plan, the store is still old-or-new, and once
writer A subsequently saves, **nothing either writer durably committed
is lost** — the longest committed sample prefix survives exactly.
Saving again is idempotent (byte-identical file).

Hypothesis draws the writers' sample-prefix lengths and the save
interleaving; every deterministic
kill point of the interrupted save is then exercised for each drawn
scenario.  Both planes run it: ``M_ur`` pools draw vector batches of 512,
``M_uo`` pools one walk sample per batch — one resume scheme for both.
"""

import base64
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


from repro.chains.generators import M_UO, M_UR
from repro.engine import CacheStore, EstimationSession
from repro.engine import fsfault
from repro.engine.batch import group_seed_for
from repro.engine.fsfault import CrashPoint, FaultPlan
from repro.workloads import figure2_database

SEED = 7


def build_writer(cache_dir, grow_to, generator=M_UR):
    """A loaded-but-unsaved writer with ``grow_to`` samples drawn.
    Returns the entry and the pool's materialized length (pools draw
    whole batches, so it may exceed ``grow_to``)."""
    database, constraints = figure2_database()
    group_seed = group_seed_for(SEED, database, constraints, generator)
    entry = CacheStore(str(cache_dir)).entry(
        database, constraints, generator.name, group_seed
    )
    session = EstimationSession(database, constraints, generator, cache=entry)
    pool = session.cached_pool(group_seed)
    pool.ensure(grow_to)
    return entry, len(pool)


def entry_file(cache_dir):
    names = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    return os.path.join(cache_dir, names[0]) if names else None


SCENARIO = dict(a_saves_first=st.booleans())
SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    grow_a=st.integers(min_value=1, max_value=600),
    grow_b=st.integers(min_value=1, max_value=600),
    **SCENARIO,
)
def test_interrupted_two_writer_merge_is_lossless_and_idempotent(
    tmp_path_factory, grow_a, grow_b, a_saves_first
):
    check_interrupted_merge(tmp_path_factory, M_UR, grow_a, grow_b, a_saves_first)


@SETTINGS
@given(
    # Walk samples cost a full M_uo walk each: shorter prefixes, same
    # interleavings (every prefix length is a whole number of batches).
    grow_a=st.integers(min_value=1, max_value=40),
    grow_b=st.integers(min_value=1, max_value=40),
    **SCENARIO,
)
def test_interrupted_two_writer_merge_on_the_walk_plane(
    tmp_path_factory, grow_a, grow_b, a_saves_first
):
    check_interrupted_merge(tmp_path_factory, M_UO, grow_a, grow_b, a_saves_first)


def check_interrupted_merge(tmp_path_factory, generator, grow_a, grow_b, a_saves_first):
    fsfault.reset()
    # Size the kill sweep: a "raise"-only plan never fires, so this dry
    # run is a real, fault-free execution of the B-save being attacked.
    dry_dir = tmp_path_factory.mktemp("dry")
    writer_a, _ = build_writer(dry_dir, grow_a, generator)
    writer_b, _ = build_writer(dry_dir, grow_b, generator)
    if a_saves_first:
        writer_a.save()
    with fsfault.injected(FaultPlan(crash="raise")) as dry:
        writer_b.save()
        operations = dry.ops
    assert operations >= 4  # write, fsync, replace, directory fsync

    for kill_at in range(1, operations + 1):
        replay = tmp_path_factory.mktemp(f"kill-{kill_at}")
        writer_a, pool_a = build_writer(replay, grow_a, generator)
        writer_b, pool_b = build_writer(replay, grow_b, generator)
        if a_saves_first:
            writer_a.save()
        with fsfault.injected(FaultPlan(kill_at=kill_at, crash="raise")):
            try:
                writer_b.save()
            except CrashPoint:
                pass
        # The save's mutating ops run write → fsync → replace → dirsync;
        # the kill fires *before* op kill_at, so B's rename landed
        # exactly when only the final directory fsync was cut off.
        b_landed = kill_at == operations

        # Old-or-new: whatever is on disk loads cleanly right now.
        if entry_file(replay) is not None:
            database, constraints = figure2_database()
            group_seed = group_seed_for(SEED, database, constraints, generator)
            probe = CacheStore(str(replay)).entry(
                database, constraints, generator.name, group_seed
            )
            assert probe.load_error is None, (kill_at, probe.load_error)

        # Writer A saves after the crash; the merge must preserve the
        # longest committed prefix exactly (no clobbered samples, no
        # phantom rows).
        writer_a.save()
        document = json.load(open(entry_file(replay)))
        expected_samples = max(pool_a, pool_b if b_landed else 0)
        rows = len(base64.b64decode(document["samples"])) // (8 * document["words"])
        assert rows == expected_samples, (kill_at, spec_of())

        # Idempotence: an immediate re-save with nothing new must be a
        # byte-for-byte no-op.
        before = open(entry_file(replay), "rb").read()
        writer_a.save()
        assert open(entry_file(replay), "rb").read() == before


def spec_of():
    return "sample prefix clobbered or phantom rows appeared"
