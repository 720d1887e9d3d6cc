"""Crash-torture harness: SIGKILL a real writer at randomized fault points.

Each torture point copies a seeded baseline store, re-runs the writer
subprocess (``python -m repro.engine.fsfault``) with a fault-plan spec in
the environment, and lets the shim SIGKILL it mid-commit.  The surviving
store must be atomically **old-or-new** (never torn), **fsck-clean**, and
a clean re-run must converge to the committed state **bit-identically** —
the three durability claims everything warm-path rests on.

``REPRO_TORTURE_POINTS`` scales the sweep: the per-PR smoke default
covers every deterministic kill point plus a few randomized torn/ENOSPC
variants; the scheduled ``torture-full`` CI leg sets it to 200+.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chains.generators import M_UR
from repro.engine import CacheStore, fsck_store
from repro.engine.fsfault import SPEC_ENV
from repro.workloads import figure2_database

SEED = 7
BASE_DRAWS = 40
EXTENDED_DRAWS = 600
TORTURE_POINTS = int(os.environ.get("REPRO_TORTURE_POINTS", "12"))


def run_writer(cache_dir, draws, spec=None):
    environment = dict(os.environ)
    source_root = str(Path(__file__).resolve().parents[1] / "src")
    environment["PYTHONPATH"] = (
        source_root + os.pathsep + environment.get("PYTHONPATH", "")
    )
    if spec is not None:
        environment[SPEC_ENV] = spec
    else:
        environment.pop(SPEC_ENV, None)
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.engine.fsfault",
            "--cache-dir",
            str(cache_dir),
            "--seed",
            str(SEED),
            "--draws",
            str(draws),
        ],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )


def stored_rows(cache_dir):
    database, constraints = figure2_database()
    entry = CacheStore(str(cache_dir)).entry(database, constraints, M_UR.name, SEED)
    assert entry.load_error is None, entry.load_error
    return entry.sample_word_rows().tolist()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Baseline store (state A), committed store (state B), and the
    extension save's mutating-op count from a counting dry run."""
    root = tmp_path_factory.mktemp("torture")
    baseline_dir = root / "baseline"
    result = run_writer(baseline_dir, BASE_DRAWS)
    assert result.returncode == 0, result.stderr[-500:]

    dry_dir = root / "dry"
    shutil.copytree(baseline_dir, dry_dir)
    # "raise" arms a fault-free FaultyOps: it counts mutating ops (the
    # kill-point space) without ever crashing.
    dry = json.loads(run_writer(dry_dir, EXTENDED_DRAWS, spec="raise").stdout)
    assert dry["ops"] >= 4, dry

    committed_dir = root / "committed"
    shutil.copytree(baseline_dir, committed_dir)
    assert run_writer(committed_dir, EXTENDED_DRAWS).returncode == 0
    state_a = stored_rows(baseline_dir)
    state_b = stored_rows(committed_dir)
    assert len(state_b) > len(state_a)
    return baseline_dir, state_a, state_b, dry["ops"]


def torture_specs(operations):
    """The sweep: every deterministic kill point first, then seeded
    random torn-write / ENOSPC / dirsync variants up to the budget."""
    specs = [f"kill:{point}" for point in range(1, operations + 1)]
    rng = random.Random(0xDEAD)
    while len(specs) < TORTURE_POINTS:
        roll = rng.randrange(4)
        if roll == 0:
            specs.append(f"kill:{rng.randint(1, operations)}")
        elif roll == 1:
            specs.append(f"torn:1,kill:{rng.randint(2, operations)}")
        elif roll == 2:
            specs.append(f"enospc:{rng.randint(1, 4096)},kill:{operations}")
        else:
            specs.append("dirsync-crash")
    return specs[:max(TORTURE_POINTS, operations)]


class TestCrashTorture:
    def test_every_fault_point_is_old_or_new_and_replays(self, corpus, tmp_path):
        baseline_dir, state_a, state_b, operations = corpus
        violations = []
        for index, spec in enumerate(torture_specs(operations)):
            scratch = tmp_path / f"point-{index}"
            shutil.copytree(baseline_dir, scratch)
            result = run_writer(scratch, EXTENDED_DRAWS, spec=spec)
            if result.returncode == 0:
                # ENOSPC specs may exhaust their byte budget without
                # reaching the kill op — a survivable error, rc != -9.
                assert "kill" not in spec or "enospc" in spec or "torn" in spec
            else:
                assert result.returncode in (-signal.SIGKILL, 1), (
                    spec,
                    result.returncode,
                    result.stderr[-300:],
                )
            report = fsck_store(str(scratch))
            rows = stored_rows(scratch)
            if not report.ok:
                violations.append(f"{spec}: fsck {report.render()}")
            elif rows not in (state_a, state_b):
                violations.append(f"{spec}: torn state ({len(rows)} rows)")
            else:
                # Recovery: a clean re-run converges bit-identically.
                rerun = run_writer(scratch, EXTENDED_DRAWS)
                if rerun.returncode != 0:
                    violations.append(f"{spec}: replay rc {rerun.returncode}")
                elif stored_rows(scratch) != state_b:
                    violations.append(f"{spec}: replay drift")
            shutil.rmtree(scratch)
        assert not violations, violations

    def test_sigkill_leaves_no_partial_visibility(self, corpus, tmp_path):
        """The flagship point: die *between* rename and directory fsync
        — the entry must be fully new, never a mix."""
        baseline_dir, state_a, state_b, operations = corpus
        scratch = tmp_path / "dirsync"
        shutil.copytree(baseline_dir, scratch)
        result = run_writer(scratch, EXTENDED_DRAWS, spec="dirsync-crash")
        assert result.returncode == -signal.SIGKILL
        assert stored_rows(scratch) == state_b
        assert fsck_store(str(scratch)).ok
