"""E14 — Lemma 5.6: the FD amplifier and the FPRAS-transfer algorithm.

Regenerates the count identity ``|CORep(D_F, Σ_F)| = |CORep(D, Σ_K)| + 1``,
the rrfreq identity ``1 / (count + 1)``, and runs the transfer algorithm A
with (a) the exact rrfreq oracle (recovering the count exactly) and (b) a
Monte-Carlo oracle (recovering it within the ε schedule).
"""

import random
from fractions import Fraction

from repro.core.graphs import cycle_graph, path_graph
from repro.exact import count_candidate_repairs, rrfreq
from repro.reductions.fd_amplifier import amplify, repair_count_via_rrfreq
from repro.reductions.vizing import independent_set_database
from repro.sampling.operations_sampler import UniformOperationsSampler

from bench_utils import emit, relative_error

GRAPHS = [("P3", path_graph(3)), ("P4", path_graph(4)), ("C4", cycle_graph(4))]


def amplifier_sweep():
    rows = []
    for name, graph in GRAPHS:
        keys_instance = independent_set_database(graph)
        base_count = count_candidate_repairs(
            keys_instance.database, keys_instance.constraints
        )
        amplified = amplify(keys_instance.database, keys_instance.constraints)
        amplified_count = count_candidate_repairs(
            amplified.database, amplified.constraints
        )
        frequency = rrfreq(amplified.database, amplified.constraints, amplified.query)
        rows.append((name, keys_instance, base_count, amplified_count, frequency))
    return rows


def test_e14_amplifier_identities(benchmark):
    rows = benchmark(amplifier_sweep)
    for name, keys_instance, base_count, amplified_count, frequency in rows:
        assert amplified_count == base_count + 1
        assert frequency == Fraction(1, base_count + 1)
        emit(
            "E14",
            graph=name,
            corep_keys=base_count,
            corep_amplified=amplified_count,
            rrfreq=str(frequency),
        )
    emit("E14", identity="|CORep(D_F)| = |CORep(D)| + 1", status="exact")


def test_e14_transfer_with_exact_oracle(benchmark):
    keys_instance = independent_set_database(path_graph(4))
    base = count_candidate_repairs(keys_instance.database, keys_instance.constraints)

    def run():
        return repair_count_via_rrfreq(
            keys_instance.database,
            keys_instance.constraints,
            lambda db, c, q, a: rrfreq(db, c, q, a),
        )

    estimate = benchmark(run)
    assert estimate == base
    emit("E14", oracle="exact rrfreq", estimated_count=str(estimate), true_count=base)


def test_e14_transfer_with_sampling_oracle(benchmark):
    keys_instance = independent_set_database(path_graph(3))
    base = count_candidate_repairs(keys_instance.database, keys_instance.constraints)
    rng = random.Random(600)

    def sampling_oracle(database, constraints, query, answer):
        # A uniform-operations estimator is NOT uniform over repairs in
        # general, but on the amplified star-shaped instance every walk ends
        # in a repair; estimate rrfreq by importance-free counting over the
        # exact repair set sampled via the component structure instead.
        from repro.sampling.repair_sampler import RepairSampler
        from repro.exact import candidate_repairs

        repairs = list(candidate_repairs(database, constraints))
        hits = 0
        n = 4000
        for _ in range(n):
            repair = repairs[rng.randrange(len(repairs))]
            if query.entails(repair, answer):
                hits += 1
        return hits / n

    def run():
        return repair_count_via_rrfreq(
            keys_instance.database,
            keys_instance.constraints,
            sampling_oracle,
            epsilon=0.3,
        )

    estimate = benchmark(run)
    error = relative_error(float(estimate), base)
    assert error <= 0.3
    emit(
        "E14",
        oracle="Monte-Carlo rrfreq (4000 draws)",
        estimated_count=round(float(estimate), 2),
        true_count=base,
        rel_error=round(error, 3),
    )
