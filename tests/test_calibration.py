"""The calibration audit plane: metrics, harness, report, and the tier-2 audit.

Tier-1 covers the audit's own arithmetic (the float Clopper–Pearson band
against the exact Fraction implementation, seed derivation, verdict
logic) and a micro audit exercising the full harness path.  The
``tier2``-marked classes run the reduced-replication statistical audit
itself — excluded from the tier-1 gate by ``addopts`` and selected in CI
with ``-m tier2``.
"""

import json
import math
import random

import pytest

from repro.approx.intervals import clopper_pearson_interval
from repro.calibration import (
    AuditReport,
    anytime_violation_audit,
    clopper_pearson_bounds,
    default_targets,
    exact_ground_target,
    miscoverage_summary,
    reference_target,
    relative_error_violated,
    render_report,
    replication_seed,
    report_to_dict,
    run_audit,
    sharpness_summary,
)
from repro.chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from repro.core.facts import fact
from repro.workloads import block_membership_query, figure2_database


class TestClopperPearson:
    """The float log-space band must agree with the exact Fraction one."""

    @pytest.mark.parametrize("failures", [0, 1, 3, 17, 39, 40])
    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_matches_exact_implementation(self, failures, confidence):
        replications = 40
        lower, upper = clopper_pearson_bounds(failures, replications, confidence)
        exact = clopper_pearson_interval(
            failures, replications, confidence=confidence
        )
        assert lower == pytest.approx(float(exact.lower), abs=1e-9)
        assert upper == pytest.approx(float(exact.upper), abs=1e-9)

    def test_degenerate_counts(self):
        lower, upper = clopper_pearson_bounds(0, 100)
        assert lower == 0.0 and 0.0 < upper < 0.1
        lower, upper = clopper_pearson_bounds(100, 100)
        assert 0.9 < lower < 1.0 and upper == 1.0

    def test_band_tightens_with_replications(self):
        narrow = clopper_pearson_bounds(10, 1000)
        wide = clopper_pearson_bounds(1, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    @pytest.mark.parametrize(
        "failures, replications, confidence",
        [(-1, 10, 0.99), (11, 10, 0.99), (1, 0, 0.99), (1, 10, 1.0), (1, 10, 0.0)],
    )
    def test_rejects_invalid_inputs(self, failures, replications, confidence):
        with pytest.raises(ValueError):
            clopper_pearson_bounds(failures, replications, confidence)


class TestReplicationSeeds:
    def test_deterministic_and_63_bit(self):
        seed = replication_seed(0, "cell", 0)
        assert seed == replication_seed(0, "cell", 0)
        assert 0 <= seed < 2**63

    def test_distinct_across_cells_and_indices(self):
        seeds = {
            replication_seed(base, cell, index)
            for base in (0, 1)
            for cell in ("a/fixed", "a/adaptive", "b/fixed")
            for index in range(50)
        }
        assert len(seeds) == 2 * 3 * 50


class TestVerdicts:
    def test_relative_error_event(self):
        # Exactly representable floats so the boundary is the boundary.
        assert not relative_error_violated(0.25, 0.25, 0.5)
        assert not relative_error_violated(0.375, 0.25, 0.5)  # |e−t| == ε·t holds
        assert relative_error_violated(0.376, 0.25, 0.5)
        assert relative_error_violated(0.124, 0.25, 0.5)

    def test_zero_truth_requires_exact_zero(self):
        assert not relative_error_violated(0.0, 0.0, 0.3)
        assert relative_error_violated(1e-12, 0.0, 0.3)

    def test_miscoverage_passes_iff_band_reaches_delta(self):
        clean = miscoverage_summary(0, 200, 0.1)
        assert clean.passed and clean.rate == 0.0
        # 60 failures in 200 at δ=0.1: even the CP lower bound is far above δ.
        drifted = miscoverage_summary(60, 200, 0.1)
        assert drifted.lower > 0.1 and not drifted.passed
        # 25/200 = 0.125 > δ, but the band still reaches down to δ: noise.
        noisy = miscoverage_summary(25, 200, 0.1)
        assert noisy.rate > 0.1 and noisy.passed

    def test_sharpness_summary_edge_cases(self):
        assert sharpness_summary([], 0.1) is None
        certificate_only = sharpness_summary([(0.0, 5, 0.0)], 0.1)
        assert certificate_only.mean_floor_ratio == 1.0
        summary = sharpness_summary([(0.2, 100, 0.1), (0.1, 400, 0.05)], 0.1)
        assert summary.replications == 2
        assert summary.mean_floor_ratio > 1.0  # anytime is wider than fixed-n


class TestAnytimeAudit:
    def test_budget_is_half_delta(self):
        summary = anytime_violation_audit(0.5, 0.2, replications=5, horizon=16)
        assert summary.nominal_delta == pytest.approx(0.1)
        assert summary.replications == 5

    def test_degenerate_truths_never_violate(self):
        # p ∈ {0, 1} streams are constant: the mean equals the truth at
        # every prefix, so no optional stopper can ever catch them outside.
        for truth in (0.0, 1.0):
            summary = anytime_violation_audit(
                truth, 0.1, replications=3, horizon=32
            )
            assert summary.failures == 0

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            anytime_violation_audit(1.5, 0.1, replications=2, horizon=8)
        with pytest.raises(ValueError):
            anytime_violation_audit(0.5, 0.1, replications=2, horizon=0)


class TestTargets:
    def test_figure2_exact_truths(self):
        targets = {t.name: t for t in default_targets("small")}
        assert targets["fig2-mur"].truth == pytest.approx(0.25)
        assert targets["fig2-mus"].truth == pytest.approx(8 / 33)
        assert targets["fig2-sure"].truth == 1.0
        assert targets["fig2-muo"].truth == pytest.approx(5 / 18)
        assert targets["fig2-muo1"].truth == pytest.approx(1 / 3)
        assert all(t.truth_kind == "exact" for t in targets.values())

    def test_full_profile_extends_small(self):
        small = {t.name for t in default_targets("small")}
        full = {t.name for t in default_targets("full")}
        assert small < full
        kinds = {t.name: t.truth_kind for t in default_targets("full")}
        assert kinds["blocks6-membership"] == "reference"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            default_targets("medium")

    def test_exact_target_rejects_non_polynomial_generator(self):
        database, constraints = figure2_database()
        with pytest.raises(KeyError):
            exact_ground_target(
                "bad", database, constraints, M_UO, [fact("R", "a1", "b1")]
            )

    def test_singleton_targets_share_the_law_truth(self):
        # On keys every singleton variant audits one law: Π 1/|B|.
        database, constraints = figure2_database()
        for generator in (M_UR1, M_US1, M_UO1):
            target = exact_ground_target(
                "one", database, constraints, generator, [fact("R", "a1", "b1")]
            )
            assert target.truth == pytest.approx(1 / 3)
            assert target.generator is generator

    def test_reference_target_is_seed_deterministic(self):
        database, constraints = figure2_database()
        kwargs = dict(samples=500, seed=77)
        first = reference_target(
            "ref", database, constraints, M_UR, block_membership_query(),
            ("a1",), **kwargs,
        )
        second = reference_target(
            "ref", database, constraints, M_UR, block_membership_query(),
            ("a1",), **kwargs,
        )
        assert first.truth == second.truth
        # block a1 has 3 facts: survival 3/4 under M_ur, so a 500-sample
        # reference should land in the right neighbourhood.
        assert abs(first.truth - 0.75) < 0.1


class TestMicroAudit:
    """A tiny full-path run: shape, filtering, artifacts — not statistics."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_audit(
            default_targets("small"),
            replications=3,
            base_seed=9,
            horizon=16,
        )

    def test_grid_shape(self, report):
        assert isinstance(report, AuditReport)
        # 5 targets × 2 modes × 2 warmths, each on its law's plane.
        assert len(report.cells) == 20
        assert len(report.anytime) == 5
        assert report.backends == ("scalar", "vector")
        for cell in report.cells:
            expected = "scalar" if cell.target == "fig2-muo" else "vector"
            assert cell.backend == expected, cell.cell_id

    def test_warm_cells_replay_cold(self, report):
        warm = [c for c in report.cells if c.warmth == "warm"]
        assert len(warm) == 10
        assert all(c.replay_mismatches == 0 for c in warm)

    def test_adaptive_cells_carry_sharpness(self, report):
        for cell in report.cells:
            if cell.mode == "adaptive":
                assert cell.sharpness is not None
                assert cell.sharpness.mean_floor_ratio >= 1.0
            else:
                assert cell.sharpness is None

    def test_report_artifacts(self, report):
        document = report_to_dict(report)
        json.dumps(document)  # must be JSON-serializable as-is
        assert document["kind"] == "repro-calibration-audit"
        assert len(document["cells"]) == 20
        text = render_report(report)
        assert "calibration audit" in text
        assert ("PASS" in text) or ("FAIL" in text)

    def test_cell_filtering(self):
        filtered = run_audit(
            default_targets("small")[:1],
            replications=2,
            cells=["fixed"],
            anytime_replications=0,
            horizon=8,
        )
        assert filtered.cells and all(c.mode == "fixed" for c in filtered.cells)
        assert not filtered.anytime

    def test_empty_cell_filter_is_an_error_not_a_vacuous_pass(self):
        with pytest.raises(ValueError, match="matched nothing"):
            run_audit(
                default_targets("small")[:1],
                replications=2,
                cells=["fig2-mur/*"],
                anytime_replications=0,
                horizon=8,
            )

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            run_audit(default_targets("small"), replications=0)

    def test_vector_backend_joins_the_grid(self):
        # An M_ur target audits the vector plane and only that plane.
        report = run_audit(
            default_targets("small")[:1],
            replications=2,
            anytime_replications=0,
            horizon=8,
        )
        assert {c.backend for c in report.cells} == {"vector"}
        assert report.backends == ("vector",)


@pytest.mark.tier2
class TestReducedReplicationAudit:
    """The statistical audit itself, at PR-gate scale (CI: `-m tier2`)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_audit(
            default_targets("small"),
            epsilon=0.3,
            delta=0.1,
            replications=150,
            base_seed=2022,
            horizon=256,
        )

    def test_every_cell_within_its_band(self, report):
        failing = [c.cell_id for c in report.cells if not c.miscoverage.passed]
        assert not failing, f"coverage drift in {failing}"

    def test_every_warm_cell_replays_bit_for_bit(self, report):
        mismatched = [
            c.cell_id
            for c in report.cells
            if c.warmth == "warm" and c.replay_mismatches
        ]
        assert not mismatched, f"replay divergence in {mismatched}"

    def test_anytime_validity_under_optional_stopping(self, report):
        failing = [a.target for a in report.anytime if not a.passed]
        assert not failing, f"confidence sequence overshoots δ/2 for {failing}"

    def test_grid_is_complete(self, report):
        expected_backends = {"scalar", "vector"}
        seen = {(c.mode, c.backend, c.warmth) for c in report.cells}
        assert seen == {
            (mode, backend, warmth)
            for mode in ("fixed", "adaptive")
            for backend in expected_backends
            for warmth in ("cold", "warm")
        }
        assert report.passed
