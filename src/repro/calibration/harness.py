"""Mass-replication (ε, δ) audit harness.

One audit = a grid of **cells**, each a claim the engine makes, measured
by thousands of independently seeded replications:

    (target) × (fixed | adaptive) × (cold | warm)

Each cell also names the sample plane (``scalar`` | ``vector``) its pools
were drawn on, which the target's sampling law decides
(:func:`~repro.engine.session.sampling_law`): ``M_ur``/``M_us`` targets
and the singleton law on keys audit the vector plane, the ``M_uo`` target
the scalar one.

*Targets* pair an instance/query with its truth — exact rationals from
the polynomial ground-survival formulas on small instances, or a pinned
high-replication reference estimate where no closed form exists.  Every
replication runs the real engine path end to end (session, kernel,
sample pool, cache store), never a reimplementation: a seeding bug, a
kernel regression, or a sharding slip shows up as coverage drift in the
affected cell while the others stay clean, which localizes the plane at
fault.

The warm cells double as a replay-parity canary: each replication's cold
pass draws through a :class:`~repro.engine.store.CacheStore` entry and
saves it; the warm pass re-opens the entry through a fresh handle and
must reproduce the cold estimates bit-for-bit (the store's resume
contract).  A warm cell therefore fails on either coverage drift *or*
replay divergence.

Seeds are derived per ``(cell, replication)`` by hashing (see
:func:`~repro.calibration.metrics.replication_seed`), so audits replay
exactly from one base seed and cells never share streams by accident.
"""

from __future__ import annotations

import contextlib
import random
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from ..chains.generators import M_UO, M_UO1, M_UR, M_US, MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import fact
from ..core.queries import Atom, ConjunctiveQuery, boolean_cq
from ..counting.survival import ground_survival_mur, ground_survival_mus
from ..engine import MODES, CacheStore, EstimationSession, sampling_law
from ..exact import exact_ocqa
from ..workloads import (
    block_membership_query,
    figure2_database,
    random_block_database,
)
from .metrics import (
    MiscoverageSummary,
    SharpnessSummary,
    anytime_violation_audit,
    miscoverage_summary,
    relative_error_violated,
    replication_seed,
    sharpness_summary,
)

__all__ = [
    "AnytimeResult",
    "AuditReport",
    "AuditTarget",
    "CellResult",
    "default_targets",
    "exact_ground_target",
    "reference_target",
    "run_audit",
]

WARMTHS = ("cold", "warm")

_EXACT_SURVIVAL = {
    "M_ur": ground_survival_mur,
    "M_us": ground_survival_mus,
    # The singleton law on primary keys: Π 1/|B| for every variant.
    "M_ur,1": partial(ground_survival_mur, singleton_only=True),
}

#: Seed namespace for pinned reference truths — deliberately *not* the
#: audit's base seed, so changing ``--seed`` re-randomizes the audited
#: replications without silently moving the truth they are judged against.
_REFERENCE_SEED_NAMESPACE = 999_331


@dataclass(frozen=True)
class AuditTarget:
    """An instance/query pair with the truth its estimates are judged by."""

    name: str
    database: Database
    constraints: FDSet
    generator: MarkovChainGenerator
    query: ConjunctiveQuery
    answer: tuple
    truth: float
    truth_kind: str  # "exact" | "reference"


def exact_ground_target(
    name: str,
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    facts: Iterable,
) -> AuditTarget:
    """A target whose truth is the polynomial ground-survival rational
    of the generator's :func:`~repro.engine.session.sampling_law`."""
    chosen = frozenset(facts)
    formula = _EXACT_SURVIVAL.get(sampling_law(generator, constraints).name)
    if formula is None:
        raise KeyError(
            f"no polynomial survival formula for {generator.name!r}; "
            "use reference_target"
        )
    truth = formula(database, constraints, chosen)
    query = boolean_cq(
        *(Atom(f.relation, f.values) for f in sorted(chosen, key=repr))
    )
    return AuditTarget(
        name=name,
        database=database,
        constraints=constraints,
        generator=generator,
        query=query,
        answer=(),
        truth=float(truth),
        truth_kind="exact",
    )


def reference_target(
    name: str,
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
    query: ConjunctiveQuery,
    answer: tuple = (),
    *,
    samples: int = 100_000,
    seed: int | None = None,
) -> AuditTarget:
    """A target whose truth is a pinned high-replication reference estimate.

    For instances with no closed-form survival probability the audit
    measures estimates against a single fixed-budget run two orders of
    magnitude larger than any audited replication, drawn from a seed
    namespace independent of the audit's own.  The reference carries its
    own (small) Monte-Carlo error, so reference cells bound *relative
    drift between planes*, not absolute correctness — ``truth_kind``
    records the distinction in the report.
    """
    if seed is None:
        seed = replication_seed(_REFERENCE_SEED_NAMESPACE, name, 0)
    session = EstimationSession(database, constraints, generator)
    pool = session.pool_for_seed(seed)
    truth = session.fixed_budget_pooled(pool, query, answer, samples=samples).estimate
    return AuditTarget(
        name=name,
        database=database,
        constraints=constraints,
        generator=generator,
        query=query,
        answer=answer,
        truth=truth,
        truth_kind="reference",
    )


def default_targets(profile: str = "small") -> list[AuditTarget]:
    """The stock audit grid.

    ``small`` (the PR-gate profile) audits the Figure 2 instance, whose
    truths are exact textbook rationals, across three probability regimes:
    a conflicted fact under ``M_ur`` (p = 1/4), the same fact under
    ``M_us`` (p = 8/33 — the non-product semantics), and a conflict-free
    fact (p = 1, the early-stop regime), the conflicted fact under
    ``M_uo,1`` (p = 1/3, the singleton law on keys) — all on the vector
    plane — plus the conflicted fact under the ``M_uo`` walk (p = 5/18,
    exact by state-space enumeration), the scalar-plane target that keeps
    the scalar warm-replay path audited.  ``full`` (the cron profile) adds
    a larger random block instance with an exact joint-survival truth and
    a reference-truth membership query exercising non-ground answers.
    """
    if profile not in ("small", "full"):
        raise ValueError(f"unknown audit profile {profile!r}")
    database, constraints = figure2_database()
    targets = [
        exact_ground_target(
            "fig2-mur", database, constraints, M_UR, [fact("R", "a1", "b1")]
        ),
        exact_ground_target(
            "fig2-mus", database, constraints, M_US, [fact("R", "a1", "b1")]
        ),
        exact_ground_target(
            "fig2-sure", database, constraints, M_UR, [fact("R", "a2", "b1")]
        ),
        exact_ground_target(
            "fig2-muo1", database, constraints, M_UO1, [fact("R", "a1", "b1")]
        ),
    ]
    walk_query = boolean_cq(Atom("R", ("a1", "b1")))
    targets.append(
        AuditTarget(
            name="fig2-muo",
            database=database,
            constraints=constraints,
            generator=M_UO,
            query=walk_query,
            answer=(),
            truth=float(exact_ocqa(database, constraints, M_UO, walk_query)),
            truth_kind="exact",
        )
    )
    if profile == "full":
        big_db, big_constraints = random_block_database(
            6, 3, rng=random.Random(2022)
        )
        targets.append(
            exact_ground_target(
                "blocks6-mur",
                big_db,
                big_constraints,
                M_UR,
                [fact("R", "a0", "b0")],
            )
        )
        targets.append(
            reference_target(
                "blocks6-membership",
                big_db,
                big_constraints,
                M_UR,
                block_membership_query(),
                ("a0",),
            )
        )
    return targets


@dataclass(frozen=True)
class CellResult:
    """One audited cell: its miscoverage verdict plus canary metadata."""

    target: str
    truth: float
    truth_kind: str
    mode: str  # "fixed" | "adaptive"
    backend: str  # the plane the pools were drawn on: "scalar" | "vector"
    warmth: str  # "cold" | "warm"
    miscoverage: MiscoverageSummary
    mean_samples: float
    sharpness: SharpnessSummary | None
    replay_mismatches: int

    @property
    def cell_id(self) -> str:
        return f"{self.target}/{self.mode}/{self.backend}/{self.warmth}"

    @property
    def passed(self) -> bool:
        """Coverage within the CP band *and* bit-exact warm replay."""
        return self.miscoverage.passed and self.replay_mismatches == 0


@dataclass(frozen=True)
class AnytimeResult:
    """Adversarial optional-stopping audit of the confidence sequence."""

    target: str
    truth: float
    horizon: int
    summary: MiscoverageSummary

    @property
    def passed(self) -> bool:
        return self.summary.passed


@dataclass(frozen=True)
class AuditReport:
    """Everything one audit run measured, plus the parameters that ran it."""

    epsilon: float
    delta: float
    replications: int
    base_seed: int
    horizon: int
    backends: tuple[str, ...]
    cells: tuple[CellResult, ...]
    anytime: tuple[AnytimeResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells) and all(
            a.passed for a in self.anytime
        )

    def failing_cells(self) -> list[str]:
        failing = [c.cell_id for c in self.cells if not c.passed]
        failing.extend(
            f"{a.target}/anytime" for a in self.anytime if not a.passed
        )
        return failing


class _CellTally:
    """Mutable per-cell accumulator while replications stream in."""

    __slots__ = ("failures", "samples", "sharpness", "replay_mismatches")

    def __init__(self) -> None:
        self.failures = 0
        self.samples = 0
        self.sharpness: list[tuple[float, int, float]] = []
        self.replay_mismatches = 0

    def record(self, estimate: float, samples_used: int, truth: float, epsilon: float):
        if relative_error_violated(estimate, truth, epsilon):
            self.failures += 1
        self.samples += samples_used


def _adaptive_sharpness(result) -> tuple[float, int, float]:
    interval = result.interval
    mean = result.estimate
    return (
        (interval.upper - interval.lower) / 2.0,
        result.samples_used,
        max(0.0, mean - mean * mean),
    )


def _results_match(cold, warm) -> bool:
    return (
        cold.estimate == warm.estimate
        and cold.samples_used == warm.samples_used
        and cold.method == warm.method
    )


def run_audit(
    targets: Sequence[AuditTarget] | None = None,
    *,
    epsilon: float = 0.3,
    delta: float = 0.1,
    replications: int = 200,
    base_seed: int = 0,
    cells: Sequence[str] | None = None,
    cache_dir: str | None = None,
    horizon: int = 512,
    anytime_replications: int | None = None,
    band_confidence: float = 0.99,
    progress: Callable[[str], None] | None = None,
) -> AuditReport:
    """Run the full audit grid and return its report.

    ``cells`` filters the grid by substring match against
    ``target/mode/backend/warmth`` ids, where ``backend`` is the plane the
    target's generator draws on.
    ``cache_dir`` hosts the warm-replay store (a temporary directory, torn
    down afterwards, when ``None``).  The anytime audit replays each
    distinct truth once per ``(target, truth)`` at ``anytime_replications``
    (defaulting to ``replications``) streams of ``horizon`` draws.
    """
    if targets is None:
        targets = default_targets()
    if replications < 1:
        raise ValueError("replications must be positive")
    def wanted(cell_id: str) -> bool:
        return cells is None or any(pattern in cell_id for pattern in cells)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    cell_results: list[CellResult] = []
    with contextlib.ExitStack() as stack:
        if cache_dir is None:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-audit-")
            )
        store = CacheStore(cache_dir)
        for target in targets:
            # Audit the served path: the session and store entry of the
            # target's sampling law.
            law = sampling_law(target.generator, target.constraints)
            session = EstimationSession(target.database, target.constraints, law)
            plane = session.seeded_plane
            grid_ids = [
                f"{target.name}/{mode}/{plane}/{warmth}"
                for mode in MODES
                for warmth in WARMTHS
            ]
            if not any(wanted(cell_id) for cell_id in grid_ids):
                continue
            note(
                f"{target.name}/{plane}: {replications} replications "
                f"(truth={target.truth:.6g}, {target.truth_kind})"
            )
            tallies = {
                (mode, warmth): _CellTally() for mode in MODES for warmth in WARMTHS
            }
            for index in range(replications):
                seed = replication_seed(base_seed, f"{target.name}/{plane}", index)
                passes = {}
                for warmth in WARMTHS:
                    # Both passes open the entry through a *fresh* handle:
                    # the cold one draws and saves, the warm one must
                    # replay that stream bit-for-bit.
                    session.cache = store.entry(
                        target.database,
                        target.constraints,
                        law.name,
                        seed,
                    )
                    pool = session.cached_pool(seed)
                    fixed = session.estimate_pooled(
                        pool,
                        target.query,
                        target.answer,
                        epsilon=epsilon,
                        delta=delta,
                        method="fixed",
                    )
                    adaptive = session.estimate_adaptive(
                        target.query,
                        target.answer,
                        epsilon=epsilon,
                        delta=delta,
                        pool=pool,
                    )
                    if warmth == "cold":
                        session.cache.save()
                    passes[warmth] = (fixed, adaptive)
                    tallies[("fixed", warmth)].record(
                        fixed.estimate, fixed.samples_used, target.truth, epsilon
                    )
                    tallies[("adaptive", warmth)].record(
                        adaptive.estimate,
                        adaptive.samples_used,
                        target.truth,
                        epsilon,
                    )
                    tallies[("adaptive", warmth)].sharpness.append(
                        _adaptive_sharpness(adaptive)
                    )
                if not _results_match(passes["cold"][0], passes["warm"][0]):
                    tallies[("fixed", "warm")].replay_mismatches += 1
                if not _results_match(passes["cold"][1], passes["warm"][1]):
                    tallies[("adaptive", "warm")].replay_mismatches += 1
            session.cache = None
            for (mode, warmth), tally in tallies.items():
                cell_id = f"{target.name}/{mode}/{plane}/{warmth}"
                if not wanted(cell_id):
                    continue
                cell_results.append(
                    CellResult(
                        target=target.name,
                        truth=target.truth,
                        truth_kind=target.truth_kind,
                        mode=mode,
                        backend=plane,
                        warmth=warmth,
                        miscoverage=miscoverage_summary(
                            tally.failures,
                            replications,
                            delta,
                            band_confidence,
                        ),
                        mean_samples=tally.samples / replications,
                        sharpness=(
                            sharpness_summary(tally.sharpness, delta)
                            if mode == "adaptive"
                            else None
                        ),
                        replay_mismatches=tally.replay_mismatches,
                    )
                )
    anytime_results: list[AnytimeResult] = []
    anytime_count = (
        anytime_replications if anytime_replications is not None else replications
    )
    if anytime_count > 0:
        for target in targets:
            if cells is not None and not wanted(f"{target.name}/anytime"):
                continue
            note(
                f"{target.name}/anytime: {anytime_count} optional-stopping "
                f"streams of {horizon} draws"
            )
            anytime_results.append(
                AnytimeResult(
                    target=target.name,
                    truth=target.truth,
                    horizon=horizon,
                    summary=anytime_violation_audit(
                        target.truth,
                        delta,
                        anytime_count,
                        horizon,
                        base_seed=base_seed,
                        cell=f"{target.name}/anytime",
                        confidence=band_confidence,
                    ),
                )
            )
    if cells is not None and not cell_results and not anytime_results:
        raise ValueError(
            "cells filter matched nothing: patterns are substrings of "
            "target/mode/backend/warmth ids, e.g. 'adaptive' or "
            f"'fig2-mur/fixed' (got {list(cells)!r})"
        )
    return AuditReport(
        epsilon=epsilon,
        delta=delta,
        replications=replications,
        base_seed=base_seed,
        horizon=horizon,
        backends=tuple(sorted({cell.backend for cell in cell_results})),
        cells=tuple(cell_results),
        anytime=tuple(anytime_results),
    )
