"""E24 — Adaptive early-stopping estimation vs the fixed Chernoff budget.

The fixed-budget path sizes its sample count from the worst-case positivity
bound (Lemma 5.3: ``1/(2|D|)^{|Q|}``), so the budget *grows with the
database* even when the true probability stays put.  The adaptive layer
(:mod:`repro.approx.adaptive`) watches an anytime empirical-Bernstein /
Hoeffding confidence sequence and stops as soon as the requested relative
accuracy is certified — its cost tracks the (unknown) true probability, not
the worst case, while keeping the same (ε, δ) contract via its fallback
cap.

Two workloads from earlier benches:

* the **E18 protocol** (small block database) — here the fixed budget is
  modest and adaptive stopping is roughly break-even, bounded by its cap;
* the **E21 protocol** (inconsistency-sweep instance, |D| = 60) — the
  fixed budget inflates with |D| and the adaptive run wins ≥ 3× (asserted)
  at equal measured accuracy against the exact survival probability.

The cache leg reruns the E21 workload through ``batch_estimate`` with a
``cache_dir``: the second (warm) run replays persisted samples and returns
bit-for-bit the cold run's estimates.
"""

import random
import tempfile
import time

from repro.approx.montecarlo import chernoff_sample_size
from repro.chains.generators import M_UR
from repro.core.queries import atom, boolean_cq
from repro.counting.survival import ground_survival_mur
from repro.engine import BatchRequest, EstimationSession, batch_estimate
from repro.workloads import database_with_inconsistency, random_block_database

from bench_utils import emit, relative_error

EPSILON = 0.25
DELTA = 0.1
MIN_SAMPLE_REDUCTION = 3.0  # asserted on the E21 workload


def e18_workload():
    """The E18 ablation instance: five primary-key blocks of size 2–3."""
    database, constraints = random_block_database(
        5, 3, random.Random(900), min_block_size=2
    )
    target = database.sorted_facts()[0]
    query = boolean_cq(atom("R", *target.values))
    exact = float(ground_survival_mur(database, constraints, {target}))
    return "E18-blocks", database, constraints, query, exact


def e21_workload():
    """The E21 sweep instance at ratio 0.5 scaled to 60 facts."""
    database, constraints = database_with_inconsistency(
        60, 0.5, block_size=3, rng=random.Random(7)
    )
    conflicted = sorted(
        (
            f
            for f in database.sorted_facts()
            if ground_survival_mur(database, constraints, {f}) < 1
        ),
        key=str,
    )
    target = conflicted[0]
    query = boolean_cq(atom("R", *target.values))
    exact = float(ground_survival_mur(database, constraints, {target}))
    return "E21-sweep", database, constraints, query, exact


def compare(workload, seed=11):
    name, database, constraints, query, exact = workload
    session = EstimationSession(database, constraints, M_UR)
    fixed = session.estimate(
        query, epsilon=EPSILON, delta=DELTA, method="fixed", rng=random.Random(seed)
    )
    adaptive = session.estimate_adaptive(
        query, epsilon=EPSILON, delta=DELTA, rng=random.Random(seed)
    )
    return name, exact, fixed, adaptive


def run_both_workloads():
    return [compare(e18_workload()), compare(e21_workload())]


def test_e24_adaptive_vs_fixed(benchmark):
    rows = benchmark.pedantic(run_both_workloads, rounds=1, iterations=1)
    reductions = {}
    for name, exact, fixed, adaptive in rows:
        # Equal accuracy: both estimators within the requested ε of exact.
        assert relative_error(fixed.estimate, exact) <= EPSILON
        assert relative_error(adaptive.estimate, exact) <= EPSILON
        assert exact in adaptive.interval  # the anytime CI really covers
        reductions[name] = fixed.samples_used / adaptive.samples_used
        emit(
            "E24",
            workload=name,
            exact=round(exact, 4),
            fixed_samples=fixed.samples_used,
            adaptive_samples=adaptive.samples_used,
            fixed_estimate=round(fixed.estimate, 4),
            adaptive_estimate=round(adaptive.estimate, 4),
            reduction=round(reductions[name], 2),
            stop_rule=adaptive.method,
        )
    assert reductions["E21-sweep"] >= MIN_SAMPLE_REDUCTION, (
        f"adaptive only {reductions['E21-sweep']:.1f}x fewer samples on E21 "
        f"(need >= {MIN_SAMPLE_REDUCTION}x)"
    )
    emit(
        "E24",
        note="fixed budget ~ 1/p_min grows with |D|; adaptive cost ~ 1/p stays put",
        min_reduction_required=MIN_SAMPLE_REDUCTION,
    )


def test_e24_fixed_budget_grows_adaptive_stays_flat(benchmark):
    """Scaling: the fixed budget inflates with |D| at constant true p."""

    def sweep():
        rows = []
        for n_facts in (30, 60, 120):
            database, constraints = database_with_inconsistency(
                n_facts, 0.5, block_size=3, rng=random.Random(7)
            )
            conflicted = sorted(
                (
                    f
                    for f in database.sorted_facts()
                    if ground_survival_mur(database, constraints, {f}) < 1
                ),
                key=str,
            )
            query = boolean_cq(atom("R", *conflicted[0].values))
            session = EstimationSession(database, constraints, M_UR)
            budget = chernoff_sample_size(
                EPSILON, DELTA, session.positivity_bound(query)
            )
            adaptive = session.estimate_adaptive(
                query, epsilon=EPSILON, delta=DELTA, rng=random.Random(n_facts)
            )
            rows.append((n_facts, budget, adaptive.samples_used))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    budgets = [budget for _, budget, _ in rows]
    adaptives = [used for _, _, used in rows]
    assert budgets == sorted(budgets) and budgets[-1] > 2 * budgets[0]
    # Constant true p = 1/4: adaptive cost stays within a factor of two.
    assert max(adaptives) <= 2 * min(adaptives)
    for n_facts, budget, used in rows:
        emit("E24", facts=n_facts, fixed_budget=budget, adaptive_samples=used, true_p=0.25)


def test_e24_cache_warm_start(benchmark):
    """A second ``batch_estimate`` run over a cache dir replays the first."""
    name, database, constraints, query, exact = e21_workload()
    request = BatchRequest(
        database, constraints, M_UR, query, epsilon=EPSILON, delta=DELTA
    )

    def run():
        with tempfile.TemporaryDirectory() as cache_dir:
            started = time.perf_counter()
            cold = batch_estimate([request], seed=17, cache_dir=cache_dir)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            warm = batch_estimate([request], seed=17, cache_dir=cache_dir)
            warm_seconds = time.perf_counter() - started
            return cold, warm, cold_seconds, warm_seconds

    cold, warm, cold_seconds, warm_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert all(r.ok for r in cold + warm)
    assert [r.result for r in warm] == [r.result for r in cold]  # bit-for-bit replay
    assert warm_seconds < cold_seconds  # replay beats resampling (~3x measured)
    emit(
        "E24",
        cache="warm-start",
        cold_seconds=round(cold_seconds, 3),
        warm_seconds=round(warm_seconds, 3),
        speedup=round(cold_seconds / max(warm_seconds, 1e-9), 1),
        identical_results=True,
    )
