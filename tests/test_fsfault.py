"""In-process filesystem fault plans: every deterministic failure mode.

The shim (:mod:`repro.engine.fsfault`) is the durability plane's single
point of interposition; these tests drive each fault plan with
``crash="raise"`` (so a "process death" is a :class:`CrashPoint` this
process can observe) and assert the store's old-or-new commit contract
against real on-disk state.  The subprocess SIGKILL variant lives in
``test_crash_torture.py``.
"""

import errno
import os

import pytest

from repro.chains.generators import M_UR
from repro.engine import CacheStore, EstimationSession, fsck_store
from repro.engine import fsfault
from repro.engine.fsfault import CrashPoint, FaultPlan, FaultyOps, plan_from_spec
from repro.workloads import figure2_database

SEED = 7


def grow(cache_dir, draws):
    """The torture-writer body, inline: extend the Figure-2 entry."""
    database, constraints = figure2_database()
    entry = CacheStore(str(cache_dir)).entry(database, constraints, M_UR.name, SEED)
    session = EstimationSession(database, constraints, M_UR, cache=entry)
    pool = session.cached_pool(SEED)
    pool.ensure(draws)
    entry.save()
    return entry


def saved_rows(cache_dir):
    database, constraints = figure2_database()
    entry = CacheStore(str(cache_dir)).entry(database, constraints, M_UR.name, SEED)
    return entry.sample_word_rows().tolist(), entry.load_error


@pytest.fixture(autouse=True)
def passthrough_after():
    yield
    fsfault.reset()


class TestWritePlans:
    def test_enospc_mid_write_leaves_old_state(self, tmp_path):
        baseline = grow(tmp_path, 40).sample_word_rows().tolist()
        with fsfault.injected(FaultPlan(enospc_at_byte=100, crash="raise")):
            with pytest.raises(OSError) as caught:
                grow(tmp_path, 600)
        assert caught.value.errno == errno.ENOSPC
        rows, load_error = saved_rows(tmp_path)
        assert rows == baseline and load_error is None
        # The failed writer's temp file was cleaned up (OSError is a
        # survivable failure, not a crash — the except handler runs).
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_persistent_enospc_fails_every_save(self, tmp_path):
        with fsfault.injected(FaultPlan(write_enospc=True, crash="raise")):
            with pytest.raises(OSError):
                grow(tmp_path, 40)
        assert fsck_store(str(tmp_path)).ok

    def test_torn_write_crash_leaves_old_state_and_orphan_tmp(self, tmp_path):
        baseline = grow(tmp_path, 40).sample_word_rows().tolist()
        with fsfault.injected(FaultPlan(torn_write_at=1, crash="raise")):
            with pytest.raises(CrashPoint):
                grow(tmp_path, 600)
        rows, load_error = saved_rows(tmp_path)
        assert rows == baseline and load_error is None
        # A crash (unlike a survivable error) skips cleanup: the torn
        # temp file stays behind, and fsck reports it as an orphan —
        # informational, never damage.
        report = fsck_store(str(tmp_path))
        assert report.ok and report.orphan_temps == 1

    def test_crash_after_replace_commits_new_state(self, tmp_path):
        grow(tmp_path, 40)
        with fsfault.injected(FaultPlan(crash_after_replace=True, crash="raise")):
            with pytest.raises(CrashPoint):
                grow(tmp_path, 600)
        # The rename landed before the "crash": new state is durable,
        # digest-complete, and fsck-clean.
        rows, load_error = saved_rows(tmp_path)
        assert len(rows) >= 600 and load_error is None
        assert fsck_store(str(tmp_path)).ok

    def test_kill_at_every_op_is_old_or_new(self, tmp_path):
        baseline = grow(tmp_path, 40).sample_word_rows().tolist()
        with fsfault.injected(FaultPlan(crash="raise")) as dry:
            grow(tmp_path, 600)
        committed, _ = saved_rows(tmp_path)
        operations = dry.ops
        assert operations >= 4  # write, fsync, replace, dir-fsync
        for kill_at in range(1, operations + 1):
            scratch = tmp_path / f"kill-{kill_at}"
            scratch.mkdir()
            grow(scratch, 40)
            with fsfault.injected(FaultPlan(kill_at=kill_at, crash="raise")):
                with pytest.raises(CrashPoint):
                    grow(scratch, 600)
            rows, load_error = saved_rows(scratch)
            assert load_error is None
            assert rows in (baseline, committed), f"torn state at op {kill_at}"
            assert fsck_store(str(scratch)).ok


class TestReadPlans:
    def test_eio_read_degrades_to_empty_entry(self, tmp_path):
        grow(tmp_path, 40)
        with fsfault.injected(FaultPlan(read_error="eio", crash="raise")):
            rows, load_error = saved_rows(tmp_path)
        assert rows == [] and load_error == "eio"

    def test_bitflip_read_is_detected_as_corrupt(self, tmp_path):
        grow(tmp_path, 40)
        with fsfault.injected(FaultPlan(bitflip_seed=3, crash="raise")):
            rows, load_error = saved_rows(tmp_path)
        assert rows == [] and load_error == "corrupt"
        # The file itself is untouched — a clean read recovers everything.
        rows, load_error = saved_rows(tmp_path)
        assert rows and load_error is None


class TestShimPlumbing:
    def test_injected_restores_previous_shim(self):
        before = fsfault.active()
        with fsfault.injected(FaultPlan(write_enospc=True)) as ops:
            assert fsfault.active() is ops
        assert fsfault.active() is before

    def test_install_accepts_prebuilt_ops(self):
        ops = FaultyOps(FaultPlan(read_error="eio"))
        with fsfault.injected(ops) as installed:
            assert installed is ops

    def test_plan_spec_round_trip(self):
        plan = plan_from_spec("kill:3,raise")
        assert plan.kill_at == 3 and plan.crash == "raise"
        plan = plan_from_spec("enospc:128,bitflip:9")
        assert plan.enospc_at_byte == 128 and plan.bitflip_seed == 9
        plan = plan_from_spec("torn:2,dirsync-crash,write-enospc,eio")
        assert plan.torn_write_at == 2
        assert plan.crash_after_replace and plan.write_enospc
        assert plan.read_error == "eio"
        with pytest.raises(ValueError):
            plan_from_spec("warp-core-breach")

    def test_dry_run_counts_mutating_ops_only(self, tmp_path):
        with fsfault.injected(FaultPlan(crash="raise")) as ops:
            grow(tmp_path, 40)
            writes, mutations = ops.writes, ops.ops
            saved_rows(tmp_path)  # reads must not advance the kill clock
            assert ops.ops == mutations
        assert writes >= 1 and mutations > writes
