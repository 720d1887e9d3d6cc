"""E22 — Probing the paper's open problems (Section 8).

The paper leaves open: (i) keys + uniform repairs, (ii) keys/FDs + uniform
sequences, (iii) FDs + uniform operations (solved only for singleton ops).
Monte-Carlo approximability hinges on positivity lower bounds, so we probe
whether the target quantities *decay exponentially* on natural families —
the failure mode Prop D.6 exhibits for (iii):

* ``rrfreq`` on the FD star family decays like ``2^{-(n-1)}`` — a concrete
  positivity failure matching Theorem 5.1(3)'s no-FPRAS for FDs;
* ``srfreq`` on the same family converges to ≈ 0.1839 — stars cannot
  witness a Prop-D.6-style failure for uniform sequences over FDs;
* ``srfreq`` of a hub fact under *arbitrary keys* (star conflict graphs via
  the Prop 5.5 encoding) converges to ≈ 0.184 — so the paper's conjecture
  that ``M_us`` over keys has no FPRAS cannot be established by positivity
  failure on star families either; the obstruction, if real, is elsewhere.

These are empirical probes, not theorems; they chart where the open
problems' difficulty does *not* come from.
"""

from repro.core.graphs import star_graph
from repro.core.queries import Atom, boolean_cq
from repro.exact import rrfreq, srfreq
from repro.reductions.pathological import pathological_instance
from repro.reductions.vizing import independent_set_database

from bench_utils import emit


def fd_star_series():
    rows = []
    for n in (2, 4, 6, 8, 10):
        instance = pathological_instance(n)
        rows.append(
            (
                n,
                float(rrfreq(instance.database, instance.constraints, instance.query)),
                float(srfreq(instance.database, instance.constraints, instance.query)),
            )
        )
    return rows


def test_e22_fd_star_probes(benchmark):
    rows = benchmark(fd_star_series)
    previous_rrfreq = 1.0
    for n, rrfreq_value, srfreq_value in rows:
        emit(
            "E22",
            family="FD star D_n",
            n=n,
            rrfreq=f"{rrfreq_value:.5f}",
            srfreq=f"{srfreq_value:.5f}",
        )
        # rrfreq halves (roughly) with each spoke: exponential decay.
        assert rrfreq_value < previous_rrfreq
        previous_rrfreq = rrfreq_value
    # Exponential decay for M_ur (positivity fails: Thm 5.1(3) shape) ...
    assert rows[-1][1] < 0.01
    # ... but no decay for M_us: the open problem resists this attack.
    assert rows[-1][2] > 0.15
    emit(
        "E22",
        finding="rrfreq decays exponentially on FD stars; srfreq stabilizes ~0.184",
    )


def keys_star_series():
    rows = []
    for leaves in (2, 3, 4, 5):
        instance = independent_set_database(star_graph(leaves))
        hub_fact = instance.node_to_fact[0]
        query = boolean_cq(Atom("R", hub_fact.values))
        rows.append(
            (
                leaves,
                float(srfreq(instance.database, instance.constraints, query)),
                float(rrfreq(instance.database, instance.constraints, query)),
            )
        )
    return rows


def test_e22_keys_star_probes(benchmark):
    rows = benchmark(keys_star_series)
    for leaves, srfreq_value, rrfreq_value in rows:
        emit(
            "E22",
            family="keys star (Prop 5.5 encoding)",
            leaves=leaves,
            srfreq_hub=f"{srfreq_value:.5f}",
            rrfreq_hub=f"{rrfreq_value:.5f}",
        )
    # srfreq of the hub stabilizes well above zero on this family.
    assert rows[-1][1] > 0.15
    emit(
        "E22",
        finding="no positivity failure for M_us over keys on stars "
        "(the Section 8 conjecture needs a different obstruction)",
    )
