"""E26 — Vectorized sample plane vs. the reference object samplers.

The vector plane's pitch: draw whole batches of repairs as packed
``uint64`` bitset rows (one ``numpy`` call per batch instead of one
``randrange`` per block per sample) and count witness hits with column
reductions instead of per-sample subset tests.  This bench reuses the E21
inconsistency-sweep instance shape and scores the same all-candidates
workload both ways:

* **scalar** — the reference samplers
  (``session.sampler(random.Random(seed))``: ``RepairSampler.sample`` /
  ``SequenceSampler.sample_result``), one ``Database`` per draw, with
  frozenset witness tests per (candidate, sample);
* **vector** — ``session.pool_for_seed(seed)``, the plane every pool of
  ``M_ur``/``M_us`` draws on: the same witness semantics over the packed
  sample matrix.

The two are *different deterministic streams*, so the estimates agree
statistically, not bit-for-bit.  The bit-for-bit assertion here is the
**decode-parity harness**: every vector estimate is recomputed by decoding
the plane's outcome matrices in pure Python (one OR per kept fact) and
re-counting hits — those recomputed estimates must equal the packed-plane
estimates exactly.  Speedup is asserted at ≥ 3× per sample for both
generators, and an end-to-end all-candidates group run is timed over a
pool of reference draws and over the vector pool (the vector rows
asserted identical to a ``batch_estimate`` rerun).
"""

import random
import time

from repro.chains.generators import M_UR, M_US
from repro.core.queries import atom, cq, var
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    BatchRequest,
    EstimationSession,
    SamplePool,
    batch_estimate,
)
from repro.engine.batch import group_seed_for, run_group
from repro.sampling.sequence_sampler import SequenceSampler
from repro.sampling.vectorized import pack_masks, words_for
from repro.workloads.inconsistency import database_with_inconsistency

from bench_utils import emit

FACTS = 40
RATIO = 0.6
BLOCK_SIZE = 3
SAMPLES = 32 * DEFAULT_BATCH_SIZE  # whole batches, decode-friendly
SEED = 26
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


def prepare_session(database, constraints, generator, query, candidates):
    """A session with structure + witnesses warm.

    Witness enumeration (homomorphism search) is identical on both sides
    and cached per session; keeping it outside the timed region makes the
    measurement about drawing and evaluating samples.
    """
    session = EstimationSession(database, constraints, generator)
    session.index()
    for candidate in candidates:
        session.witness_masks(query, candidate)
    return session


def reference_draw(session, seed):
    """One reference-sampler draw as a fact set, per call."""
    sampler = session.sampler(random.Random(seed))
    if isinstance(sampler, SequenceSampler):
        return lambda: sampler.sample_result().facts
    return lambda: sampler.sample().facts


def run_scalar(session, query, candidates):
    """The reference samplers: one object draw per sample, frozenset tests."""
    draw = reference_draw(session, SEED)
    samples = [draw() for _ in range(SAMPLES)]
    estimates = []
    for candidate in candidates:
        witnesses = session.witnesses(query, candidate)
        hits = sum(1 for facts in samples if any(w <= facts for w in witnesses))
        estimates.append(hits / SAMPLES)
    return estimates


class ReferencePlane:
    """A one-sample-per-batch plane over a reference sampler's draws."""

    def __init__(self, session, seed):
        self._draw = reference_draw(session, seed)
        self._index = session.index()

    def draw_batch(self, batch_index, size):
        masks = [self._index.mask_of(self._draw()) for _ in range(size)]
        return None, pack_masks(masks, words_for(len(self._index)))


def run_vector(session, query, candidates):
    pool = session.pool_for_seed(SEED)
    return [
        session.fixed_budget_pooled(pool, query, candidate, samples=SAMPLES).estimate
        for candidate in candidates
    ]


def decode_parity_estimates(database, constraints, generator, query, candidates):
    """Re-derive the vector estimates through the pure-Python decode."""
    session = EstimationSession(database, constraints, generator)
    plane = session.vector_plane(SEED)
    masks = []
    batch = 0
    while len(masks) < SAMPLES:
        outcomes, _ = plane.draw_batch(batch, DEFAULT_BATCH_SIZE)
        masks.extend(plane.decode_masks(outcomes))
        batch += 1
    masks = masks[:SAMPLES]
    estimates = []
    for candidate in candidates:
        witnesses = session.witness_masks(query, candidate)
        hits = sum(
            1 for mask in masks if any(w & mask == w for w in witnesses)
        )
        estimates.append(hits / SAMPLES)
    return estimates


def end_to_end(database, constraints, query, candidates):
    """Wall-clock all-candidates group runs over both pools.

    Each generator's group runs once over a pool of reference draws
    (:class:`ReferencePlane`) and once over ``session.pool_for_seed(seed)``;
    the seeded rows must equal a ``batch_estimate`` rerun bit for bit.
    """
    requests = [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=0.4,
            delta=0.1,
        )
        for generator in GENERATORS
        for candidate in candidates
    ]
    timings = {"scalar": 0.0, "vector": 0.0}
    seeded = []
    for generator in GENERATORS:
        members = [request for request in requests if request.generator is generator]
        group_seed = group_seed_for(SEED, database, constraints, generator)
        for plane in ("scalar", "vector"):
            session = EstimationSession(database, constraints, generator)
            started = time.perf_counter()
            if plane == "scalar":
                reference = ReferencePlane(session, group_seed)
                pool = SamplePool(session.index(), reference, batch_size=1)
            else:
                pool = session.pool_for_seed(group_seed)
            results = run_group(session, pool, members)
            timings[plane] += time.perf_counter() - started
            assert all(r.ok for r in results)
            if plane == "vector":
                seeded.extend(r.result for r in results)
    rerun = batch_estimate(requests, seed=SEED)
    assert [r.result for r in rerun] == seeded
    return timings


def compare():
    database, constraints, query, candidates = build_workload()
    rows = []
    for generator in GENERATORS:
        session = prepare_session(database, constraints, generator, query, candidates)
        started = time.perf_counter()
        scalar_estimates = run_scalar(session, query, candidates)
        scalar_seconds = time.perf_counter() - started
        started = time.perf_counter()
        vector_estimates = run_vector(session, query, candidates)
        vector_seconds = time.perf_counter() - started
        decoded = decode_parity_estimates(
            database, constraints, generator, query, candidates
        )
        rows.append(
            (
                generator.name,
                scalar_estimates,
                vector_estimates,
                decoded,
                scalar_seconds,
                vector_seconds,
            )
        )
    timings = end_to_end(database, constraints, query, candidates)
    return candidates, rows, timings


def test_e26_vector_plane(benchmark):
    candidates, rows, timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert len(candidates) == FACTS
    for name, scalar_estimates, vector_estimates, decoded, scalar_s, vector_s in rows:
        # Decode parity: packed-plane hits equal pure-Python recounts of
        # the same outcome matrices, bit for bit.
        assert vector_estimates == decoded
        # Cross-stream sanity: same distribution, so the all-candidate
        # means sit within Monte-Carlo noise of each other.
        gap = max(
            abs(a - b) for a, b in zip(scalar_estimates, vector_estimates)
        )
        assert gap <= 0.1
        speedup = scalar_s / vector_s
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: vector plane only {speedup:.1f}x faster "
            f"({scalar_s:.3f}s vs {vector_s:.3f}s)"
        )
        emit(
            "E26",
            generator=name,
            candidates=len(candidates),
            samples=SAMPLES,
            scalar_seconds=round(scalar_s, 3),
            vector_seconds=round(vector_s, 3),
            speedup=round(speedup, 1),
            vector_us_per_sample=round(vector_s / SAMPLES * 1e6, 2),
            decode_parity=vector_estimates == decoded,
            max_cross_plane_gap=round(gap, 4),
        )
    emit(
        "E26",
        workload="E21 inconsistency sweep",
        facts=FACTS,
        ratio=RATIO,
        block_size=BLOCK_SIZE,
        batch=DEFAULT_BATCH_SIZE,
        e2e_scalar_seconds=round(timings["scalar"], 3),
        e2e_vector_seconds=round(timings["vector"], 3),
        e2e_speedup=round(timings["scalar"] / timings["vector"], 1),
    )
