"""E28 — Calibration audit: observed (ε, δ) coverage vs the nominal claim.

A reduced-replication run of the ``repro.calibration`` audit plane (the
PR-gate leg; the scheduled CI cron runs the 2000-replication profile).
Every (target × fixed|adaptive × cold|warm) cell, on the plane its
target's generator draws on (vector for ``M_ur``/``M_us``, scalar for the
``fig2-muo`` walk), must report observed miscoverage statistically
consistent with its nominal δ — the Clopper–Pearson lower bound may not
exceed δ — and every warm cell must replay its cold twin bit-for-bit.  The adversarial optional-stopping
audit holds the confidence sequence to its δ/2 budget at every prefix
length, not just the stopping time.

Emitted rows carry the raw failure counts and CP bands so the aggregate
report doubles as a drift ledger across report regenerations.
"""

import time

from repro.calibration import default_targets, run_audit

from bench_utils import emit

REPLICATIONS = 60
EPSILON = 0.3
DELTA = 0.1
BASE_SEED = 28
HORIZON = 256


def test_e28_calibration_audit(benchmark):
    report = benchmark.pedantic(
        lambda: run_audit(
            default_targets("small"),
            epsilon=EPSILON,
            delta=DELTA,
            replications=REPLICATIONS,
            base_seed=BASE_SEED,
            horizon=HORIZON,
        ),
        rounds=1,
        iterations=1,
    )
    for cell in report.cells:
        emit(
            "E28",
            cell=cell.cell_id,
            truth=f"{cell.truth:.6f}",
            truth_kind=cell.truth_kind,
            replications=cell.miscoverage.replications,
            miscoverage=f"{cell.miscoverage.rate:.4f}",
            cp_lower=f"{cell.miscoverage.lower:.4f}",
            cp_upper=f"{cell.miscoverage.upper:.4f}",
            nominal_delta=cell.miscoverage.nominal_delta,
            mean_samples=f"{cell.mean_samples:.1f}",
            sharpness=(
                f"{cell.sharpness.mean_floor_ratio:.3f}"
                if cell.sharpness is not None
                else "-"
            ),
            replay_mismatches=cell.replay_mismatches,
            passed=cell.passed,
        )
    for result in report.anytime:
        emit(
            "E28",
            cell=f"{result.target}/anytime",
            truth=f"{result.truth:.6f}",
            horizon=result.horizon,
            violations=result.summary.failures,
            violation_rate=f"{result.summary.rate:.4f}",
            cp_lower=f"{result.summary.lower:.4f}",
            nominal_delta=result.summary.nominal_delta,
            passed=result.passed,
        )
    assert report.cells, "audit produced no cells"
    assert report.passed, f"coverage drift in {report.failing_cells()}"
    # Both planes must actually have been audited: the M_uo target draws
    # on the scalar plane, every other target on the vector one.
    assert report.backends == ("scalar", "vector")
    for cell in report.cells:
        assert cell.backend == ("scalar" if cell.target == "fig2-muo" else "vector")
    warm_cells = [c for c in report.cells if c.warmth == "warm"]
    assert warm_cells and all(c.replay_mismatches == 0 for c in warm_cells)


def test_e28_audit_wall_clock():
    """The PR-gate audit must stay CI-friendly (soft budget, generous lid)."""
    start = time.perf_counter()
    report = run_audit(
        default_targets("small"),
        replications=10,
        base_seed=1,
        horizon=64,
    )
    elapsed = time.perf_counter() - start
    emit(
        "E28",
        probe="wall-clock",
        replications=10,
        seconds=f"{elapsed:.2f}",
        cells=len(report.cells),
    )
    assert report.passed
    assert elapsed < 120.0
