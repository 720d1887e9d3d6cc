"""E34 — Chernoff budgets from the paper's bound vs the answer's own witnesses.

The FPRASes of Theorems 5.1(2) and 6.1(2) draw ``⌈3 ln(2/δ)/(ε² p_lower)⌉``
samples with ``p_lower`` the worst-case floor of Lemmas 5.3 / E.3 / 6.3
(``1/(2|D|)^{|Q|}`` or ``1/|D|^{|Q|}``), so budgets grow with ``|D|``
even when the answer's probability does not.  Any valid lower bound on
*this* answer's probability keeps the same (ε, δ) guarantee, and an answer
is at least as likely as any of its conflict-free witnesses surviving —
which on primary keys is exact and polynomial
(:mod:`repro.counting.survival`).  Sessions size budgets from the larger of
the two.

Per law (``M_ur``, ``M_ur,1``, ``M_us``) and instance size (40 to 1000
facts, blocks of 3, half the facts conflicting), this bench reports the
longest budget over the first candidates of ``Q(x, y) :- R(x, y)`` and the
wall time of one ``batch_estimate`` call over them, once with the paper's
floor (the law's survival formula switched off, as before sessions read it)
and once as sessions run by default.  It asserts that no witness budget is
larger than the paper budget for the same request, and that the rows of
both runs are valid (ε, δ) estimates of the exact survival.  ``M_us`` at
1000 facts reports budgets only: its sequence plane takes ~10 s to set up
there and the paper budget (~200k sequences) minutes to draw, which is
too long for a smoke run.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.chains.generators import M_UR, M_UR1, M_US
from repro.core.facts import fact
from repro.core.queries import atom, cq, var
from repro.engine import BatchRequest, EstimationSession, batch_estimate
from repro.engine import session as session_module
from repro.workloads import database_with_inconsistency

from bench_utils import emit

EPSILON = 0.3
DELTA = 0.1
SIZES = (40, 160, 1000)
UNTIMED = {("M_us", 1000)}
CANDIDATES = 8  # requests per call: the first candidates in sorted order
LAWS = {"M_ur": M_UR, "M_ur,1": M_UR1, "M_us": M_US}

x, y = var("x"), var("y")
QUERY = cq((x, y), (atom("R", x, y),))


@contextmanager
def paper_bounds(name):
    """Size budgets from the paper's floor alone: hide ``name``'s survival."""
    law = session_module.LAWS[name]
    session_module.LAWS[name] = replace(law, survival=None)
    try:
        yield
    finally:
        session_module.LAWS[name] = law


def workload(n_facts, generator):
    database, constraints = database_with_inconsistency(
        n_facts, 0.5, block_size=3, rng=random.Random(n_facts)
    )
    candidates = sorted(QUERY.answers(database), key=repr)[:CANDIDATES]
    requests = [
        BatchRequest(
            database, constraints, generator, QUERY, answer=c,
            epsilon=EPSILON, delta=DELTA, method="fixed",
        )
        for c in candidates
    ]
    return database, constraints, requests


def budgets(requests):
    first = requests[0]
    session = EstimationSession(first.database, first.constraints, first.generator)
    return [
        session.plan(r.query, r.answer, epsilon=EPSILON, delta=DELTA, method="fixed").budget
        for r in requests
    ]


def timed_call(requests):
    started = time.perf_counter()
    rows = batch_estimate(requests, seed=34)
    return rows, time.perf_counter() - started


def check_rows(name, database, constraints, requests, rows, expected_budgets):
    """Rows read their plans' budgets and are (ε, δ) estimates of the truth."""
    assert [row.result.samples_used for row in rows] == expected_budgets
    survival = session_module.LAWS[name].survival
    misses = 0
    for request, row in zip(requests, rows):
        truth = float(survival(database, constraints, {fact("R", *request.answer)}))
        misses += abs(row.result.estimate - truth) > EPSILON * truth
    # Each row misses ε with probability ≤ δ: allow a generous share.
    assert misses <= max(2, len(requests) // 2), (name, misses)


def measure(name, generator, n_facts):
    database, constraints, requests = workload(n_facts, generator)
    with paper_bounds(name):
        paper = budgets(requests)
    witness = budgets(requests)
    assert all(w <= p for w, p in zip(witness, paper)), (name, n_facts)
    row = dict(
        law=name,
        facts=n_facts,
        paper_budget=max(paper),
        witness_budget=max(witness),
        budget_ratio=round(max(paper) / max(witness), 1),
    )
    if (name, n_facts) in UNTIMED:
        return dict(row, timed=False)
    with paper_bounds(name):
        paper_rows, paper_seconds = timed_call(requests)
    check_rows(name, database, constraints, requests, paper_rows, paper)
    witness_rows, witness_seconds = timed_call(requests)
    check_rows(name, database, constraints, requests, witness_rows, witness)
    return dict(
        row,
        paper_seconds=round(paper_seconds, 3),
        witness_seconds=round(witness_seconds, 3),
        speedup=round(paper_seconds / max(witness_seconds, 1e-9), 1),
    )


def test_e34_witness_budgets_never_exceed_paper_budgets(benchmark):
    def run():
        return [
            measure(name, generator, n_facts)
            for name, generator in LAWS.items()
            for n_facts in SIZES
        ]

    for row in benchmark.pedantic(run, rounds=1, iterations=1):
        emit("E34", **row)
