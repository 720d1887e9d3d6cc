"""Audit artifacts: a JSON document for machines, a table for humans.

The JSON shape is the drift ledger the scheduled CI leg diffs against —
every cell carries its raw failure count, the Clopper–Pearson band, and
the replay-parity counter, so a regression is attributable to a specific
plane from the artifact alone, without re-running the audit.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import IO

from .harness import AuditReport

__all__ = ["render_report", "report_to_dict", "write_json"]


def report_to_dict(report: AuditReport) -> dict:
    """The JSON-ready document for one audit run."""
    return {
        "kind": "repro-calibration-audit",
        "version": 1,
        "parameters": {
            "epsilon": report.epsilon,
            "delta": report.delta,
            "replications": report.replications,
            "base_seed": report.base_seed,
            "horizon": report.horizon,
            "backends": list(report.backends),
        },
        "cells": [
            {
                **asdict(cell),
                "cell_id": cell.cell_id,
                "miscoverage_rate": cell.miscoverage.rate,
                "passed": cell.passed,
            }
            for cell in report.cells
        ],
        "anytime": [
            {
                **asdict(result),
                "violation_rate": result.summary.rate,
                "passed": result.passed,
            }
            for result in report.anytime
        ],
        "passed": report.passed,
        "failing_cells": report.failing_cells(),
    }


def write_json(report: AuditReport, destination: str | IO[str]) -> None:
    """Serialize the audit document to a path or open text stream."""
    document = report_to_dict(report)
    if hasattr(destination, "write"):
        json.dump(document, destination, indent=2, sort_keys=True)
        destination.write("\n")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _format_rate(summary) -> str:
    return (
        f"{summary.rate:.4f} "
        f"[{summary.lower:.4f}, {summary.upper:.4f}]"
    )


def render_report(report: AuditReport) -> str:
    """The human summary printed by ``python -m repro audit``."""
    lines = [
        (
            f"calibration audit: ε={report.epsilon} δ={report.delta} "
            f"replications={report.replications} seed={report.base_seed}"
        ),
        f"backends: {', '.join(report.backends)}",
        "",
        (
            f"{'cell':<38} {'truth':>8} {'miscoverage [CP band]':>24} "
            f"{'samples':>9} {'sharp':>6} {'replay':>6} {'':>4}"
        ),
    ]
    for cell in report.cells:
        sharp = (
            f"{cell.sharpness.mean_floor_ratio:.2f}"
            if cell.sharpness is not None
            else "-"
        )
        replay = (
            str(cell.replay_mismatches) if cell.warmth == "warm" else "-"
        )
        lines.append(
            f"{cell.cell_id:<38} {cell.truth:>8.4f} "
            f"{_format_rate(cell.miscoverage):>24} "
            f"{cell.mean_samples:>9.1f} {sharp:>6} {replay:>6} "
            f"{'ok' if cell.passed else 'FAIL':>4}"
        )
    if report.anytime:
        lines.append("")
        lines.append(
            f"{'optional-stopping (budget δ/2)':<38} {'truth':>8} "
            f"{'violations [CP band]':>24} {'horizon':>9} {'':>4}"
        )
        for result in report.anytime:
            lines.append(
                f"{result.target + '/anytime':<38} {result.truth:>8.4f} "
                f"{_format_rate(result.summary):>24} "
                f"{result.horizon:>9} "
                f"{'ok' if result.passed else 'FAIL':>4}"
            )
    lines.append("")
    if report.passed:
        lines.append("PASS: every cell's coverage is consistent with its nominal δ")
    else:
        lines.append("FAIL: coverage drift in " + ", ".join(report.failing_cells()))
    return "\n".join(lines)
