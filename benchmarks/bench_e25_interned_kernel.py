"""E25 — Interned-fact kernel vs. the object path, per-sample throughput.

The kernel's pitch (PR 3): after interning ``(D, Σ)`` once into dense fact
ids, a sampled repair is an *int bitmask* — drawn without constructing
``Operation``/``Database`` objects, and evaluated against witness masks
with integer subset tests.  This bench takes the E21 inconsistency-sweep
instance shape and times the two draw methods of one sampler class
directly, on identically seeded samplers:

* **object path** — ``sampler.sample()`` (``sample_result()`` for
  sequences): one ``Database``/sequence per draw;
* **interned** — ``sampler.sample_mask()``: one ``int`` per draw.

Every candidate's estimate is then computed from both sample lists —
frozenset containment of the witness images vs integer subset tests of
their masks.  By the RNG-parity contract asserted in
``tests/test_interning.py`` the estimates are **bit-for-bit identical**;
the kernel is a pure speedup, asserted here at ≥ 3× per draw for both the
uniform-repairs and uniform-sequences generators.
"""

import random
import time

from repro.chains.generators import M_UR, M_US
from repro.core.queries import atom, cq, var
from repro.engine import EstimationSession
from repro.sampling.sequence_sampler import SequenceSampler
from repro.workloads.inconsistency import database_with_inconsistency

from bench_utils import emit

FACTS = 40
RATIO = 0.6
BLOCK_SIZE = 3
SAMPLES = 1500
SEED = 25
ROUNDS = 3  # each path is timed as the best of this many seeded passes
MIN_SPEEDUP = 3.0

GENERATORS = [M_UR, M_US]


def build_workload():
    database, constraints = database_with_inconsistency(
        FACTS, RATIO, block_size=BLOCK_SIZE, rng=random.Random(SEED)
    )
    x, y = var("x"), var("y")
    query = cq((x, y), (atom("R", x, y),))
    candidates = sorted(query.answers(database), key=repr)
    return database, constraints, query, candidates


def timed_draws(make_draw):
    """``SAMPLES`` draws from ``make_draw()`` and their best-of-rounds time.

    Every round draws from a freshly seeded sampler, so all rounds draw
    the same samples.
    """
    best = float("inf")
    for _ in range(ROUNDS):
        draw = make_draw()
        started = time.perf_counter()
        samples = [draw() for _ in range(SAMPLES)]
        best = min(best, time.perf_counter() - started)
    return samples, best


def object_draw(session):
    sampler = session.sampler(random.Random(SEED))
    if isinstance(sampler, SequenceSampler):
        return lambda: sampler.sample_result().facts
    return lambda: sampler.sample().facts


def compare():
    database, constraints, query, candidates = build_workload()
    rows = []
    for generator in GENERATORS:
        session = EstimationSession(database, constraints, generator)
        fact_sets, object_seconds = timed_draws(lambda: object_draw(session))
        masks, interned_seconds = timed_draws(
            lambda: session.sampler(random.Random(SEED)).sample_mask
        )
        object_estimates = []
        interned_estimates = []
        for candidate in candidates:
            witnesses = session.witnesses(query, candidate)
            witness_masks = session.witness_masks(query, candidate)
            object_estimates.append(
                sum(1 for s in fact_sets if any(w <= s for w in witnesses)) / SAMPLES
            )
            interned_estimates.append(
                sum(1 for s in masks if any(w & s == w for w in witness_masks))
                / SAMPLES
            )
        rows.append(
            (
                generator.name,
                object_estimates,
                interned_estimates,
                object_seconds,
                interned_seconds,
            )
        )
    return candidates, rows


def test_e25_interned_kernel(benchmark):
    candidates, rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert len(candidates) == FACTS  # every fact is a candidate of R(x, y)
    for name, object_estimates, interned_estimates, object_seconds, interned_seconds in rows:
        # The RNG-parity contract: identical streams, identical witness
        # semantics, hence bit-for-bit identical estimates.
        assert interned_estimates == object_estimates
        speedup = object_seconds / interned_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: sample_mask() only {speedup:.1f}x faster than sample() "
            f"({object_seconds:.3f}s vs {interned_seconds:.3f}s)"
        )
        per_sample_us = interned_seconds / SAMPLES * 1e6
        emit(
            "E25",
            generator=name,
            candidates=len(candidates),
            samples=SAMPLES,
            object_seconds=round(object_seconds, 3),
            interned_seconds=round(interned_seconds, 3),
            speedup=round(speedup, 1),
            interned_us_per_sample=round(per_sample_us, 1),
            identical_estimates=interned_estimates == object_estimates,
        )
    emit(
        "E25",
        workload="E21 inconsistency sweep",
        facts=FACTS,
        ratio=RATIO,
        block_size=BLOCK_SIZE,
    )
