"""Polynomial exact probabilities for ground queries under primary keys.

The paper's positive results run Monte Carlo even for the simplest queries;
for *ground* queries (a set of specific facts that must survive) over
primary keys the probabilities are in fact computable exactly in polynomial
time, because blocks interact in a controlled way:

* ``M_ur`` / ``M_ur,1``: block outcomes are chosen independently and
  uniformly, so ``P = Π 1/(|B_i| + 1)`` (resp. ``Π 1/|B_i|``) over the
  blocks hit by the facts;
* ``M_us``: the block outcomes are *not* independent (sequence interleavings
  couple block lengths), but conditioning each hit block on "non-empty
  outcome" and shuffle-multiplying length distributions gives the exact
  joint probability — a polynomial generalization of Example C.3;
* ``M_us,1`` and ``M_uo,1``: on primary keys both have ``M_ur,1``'s law
  (one uniform survivor per block), so
  ``ground_survival_mur(..., singleton_only=True)`` serves all three.

Which formula a law uses is its :data:`repro.engine.LAWS` entry's
``survival``.  Plain ``M_uo`` has none yet: on primary keys its blocks are
independent too, but a block's chance of ending empty follows a recurrence
over the block size rather than a uniform choice, and no closed form is
implemented here.  These serve as ground truth for the calibration audit
and sampler tests at sizes the exponential engines cannot reach; they are
a small extension of the paper's algorithmic toolbox, not one of its
results.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.blocks import BlockError, block_decomposition, blocks_of_facts
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from .block_counts import block_length_distribution, max_pair_removals, nonempty_block_sequences
from .crs_count import _shuffle  # shared shuffle-product helper


def _hit_blocks(database: Database, constraints: FDSet, facts: frozenset[Fact]):
    decomposition = block_decomposition(database, constraints)
    missing = [f for f in sorted(facts, key=str) if f not in database]
    if missing:
        raise BlockError(f"facts not in the database: {missing}")
    return decomposition, blocks_of_facts(decomposition, facts)


def ground_survival_mur(
    database: Database,
    constraints: FDSet,
    facts: frozenset[Fact] | set[Fact],
    singleton_only: bool = False,
) -> Fraction:
    """``P_{M_ur}(all of ``facts`` survive)`` in polynomial time.

    Facts sharing a block cannot survive together (probability 0); otherwise
    independence across blocks gives the product formula.
    """
    fact_set = frozenset(facts)
    try:
        _, hit = _hit_blocks(database, constraints, fact_set)
    except BlockError as error:
        if "share a block" in str(error):
            return Fraction(0)
        raise
    probability = Fraction(1)
    for block in hit:
        if not block.has_conflicts:
            continue  # conflict-free facts always survive
        if singleton_only:
            probability *= Fraction(1, len(block))
        else:
            probability *= Fraction(1, len(block) + 1)
    return probability


def ground_survival_mus(
    database: Database,
    constraints: FDSet,
    facts: frozenset[Fact] | set[Fact],
) -> Fraction:
    """``P_{M_us}(all of ``facts`` survive)`` in polynomial time.

    Let ``B_1..B_m`` be the conflicting blocks hit by the facts (one fact
    per block, else the probability is 0) and ``R`` the remaining
    conflicting blocks.  The sequences keeping the specific facts are, by
    within-block symmetry, ``1/(|B_1|·..·|B_m|)`` of the sequences whose
    hit blocks end non-empty, and those are counted by shuffling the
    *non-empty* length distributions of the hit blocks with the full
    distributions of the rest.
    """
    fact_set = frozenset(facts)
    try:
        decomposition, hit = _hit_blocks(database, constraints, fact_set)
    except BlockError as error:
        if "share a block" in str(error):
            return Fraction(0)
        raise
    hit_conflicting = [block for block in hit if block.has_conflicts]
    hit_keys = {(block.relation, block.group) for block in hit_conflicting}
    rest_sizes = [
        len(block)
        for block in decomposition.conflicting_blocks()
        if (block.relation, block.group) not in hit_keys
    ]
    numerator_distribution: dict[int, int] = {0: 1}
    for block in hit_conflicting:
        numerator_distribution = _shuffle(
            numerator_distribution, _nonempty_length_distribution(len(block))
        )
    for size in rest_sizes:
        numerator_distribution = _shuffle(
            numerator_distribution, block_length_distribution(size)
        )
    total_distribution: dict[int, int] = {0: 1}
    for block in hit_conflicting:
        total_distribution = _shuffle(
            total_distribution, block_length_distribution(len(block))
        )
    for size in rest_sizes:
        total_distribution = _shuffle(total_distribution, block_length_distribution(size))
    numerator = sum(numerator_distribution.values())
    total = sum(total_distribution.values())
    symmetry = 1
    for block in hit_conflicting:
        symmetry *= len(block)
    return Fraction(numerator, total * symmetry)


def _nonempty_length_distribution(m: int) -> dict[int, int]:
    """Length distribution of the block sequences with a non-empty result."""
    distribution: dict[int, int] = {}
    for i in range(max_pair_removals(m) + 1):
        count = nonempty_block_sequences(m, i)
        if count:
            length = m - i - 1
            distribution[length] = distribution.get(length, 0) + count
    return distribution
