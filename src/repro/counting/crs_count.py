"""Polynomial-time counting of complete repairing sequences (Lemma C.1).

For a set of *primary keys*, conflicts live inside blocks and sequences over
different blocks interleave freely, so ``|CRS(D, Σ)|`` is computable in
polynomial time.  Two equivalent implementations are provided:

* :func:`count_crs_paper_dp` — the paper's ``P^{k,i}_j`` dynamic program,
  transcribed verbatim from the proof of Lemma C.1 (tracked by the number
  ``k`` of blocks with non-empty result and the number ``i`` of pair
  removals);
* :func:`count_crs_for_block_sizes` — a shuffle-product DP over per-block
  *length distributions*, used by the samplers for speed.

Tests assert the two agree and match brute-force enumeration; Example C.2's
``|CRS| = 99`` for block sizes ``(3, 2)`` is a fixture.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from ..core.blocks import block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from .block_counts import (
    block_length_distribution,
    empty_block_sequences,
    max_pair_removals,
    nonempty_block_sequences,
    singleton_block_length_distribution,
)


def _shuffle(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Shuffle product of two length distributions.

    ``(a ⧢ b)(ℓ) = Σ_{x+y=ℓ} a(x)·b(y)·C(ℓ, x)``: pairs of sequences are
    combined by choosing which positions of the merged sequence come from
    the first one.
    """
    merged: dict[int, int] = {}
    for length_a, count_a in a.items():
        for length_b, count_b in b.items():
            length = length_a + length_b
            merged[length] = merged.get(length, 0) + count_a * count_b * comb(
                length, length_a
            )
    return merged


@lru_cache(maxsize=None)
def _crs_distribution(sizes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Length distribution of ``CRS`` over blocks of the given sizes (cached)."""
    distribution: dict[int, int] = {0: 1}
    for size in sizes:
        distribution = _shuffle(distribution, block_length_distribution(size))
    return tuple(sorted(distribution.items()))


def count_crs_for_block_sizes(sizes: tuple[int, ...] | list[int]) -> int:
    """``|CRS|`` for conflicting blocks of the given sizes (sizes < 2 ignored)."""
    relevant = tuple(sorted(s for s in sizes if s >= 2))
    return sum(count for _, count in _crs_distribution(relevant))


@lru_cache(maxsize=None)
def _crs1_distribution(sizes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    distribution: dict[int, int] = {0: 1}
    for size in sizes:
        distribution = _shuffle(distribution, singleton_block_length_distribution(size))
    return tuple(sorted(distribution.items()))


def count_crs1_for_block_sizes(sizes: tuple[int, ...] | list[int]) -> int:
    """``|CRS¹|`` for the given block sizes (singleton-operation sequences)."""
    relevant = tuple(sorted(s for s in sizes if s >= 2))
    return sum(count for _, count in _crs1_distribution(relevant))


@lru_cache(maxsize=None)
def sequence_step_weights(
    sizes: tuple[int, ...], singleton_only: bool = False
) -> tuple[tuple[tuple[int, str], ...], tuple[int, ...], int]:
    """SampleSeq's per-step category weights for the live block-size state.

    ``sizes`` are the sizes of the *active* (≥ 2) blocks in iteration order.
    Returns ``(categories, weights, total)`` where each category is
    ``(position, kind)`` — ``position`` indexing into ``sizes``, ``kind``
    one of ``"single"`` / ``"pair"`` — and ``weights[i]`` is the aggregated
    Lemma 6.2 transition weight of that category (``m · |CRS(after)|`` for
    a single removal, ``C(m, 2) · |CRS(after)|`` for a pair).

    The table is memoized on the *ordered* tuple of live id-block sizes
    (process-wide, like the CRS distribution caches it sits on): every
    draw whose remaining blocks have the same ordered sizes reuses it, so
    the sampler recomputes counts once per size state instead of once per
    step of every draw.  :class:`~repro.sampling.sequence_sampler.SequenceSampler`
    draws from it through :func:`sequence_step_cumulative`, and
    :func:`aggregated_step_weights` is the same weights summed over
    equal-size blocks for the vector plane.
    """
    count = count_crs1_for_block_sizes if singleton_only else count_crs_for_block_sizes
    categories: list[tuple[int, str]] = []
    weights: list[int] = []
    for position, m in enumerate(sizes):
        rest = sizes[:position] + sizes[position + 1 :]
        categories.append((position, "single"))
        weights.append(m * count(tuple(sorted(rest + (m - 1,)))))
        if not singleton_only:
            categories.append((position, "pair"))
            weights.append((m * (m - 1) // 2) * count(tuple(sorted(rest + (m - 2,)))))
    return tuple(categories), tuple(weights), sum(weights)


@lru_cache(maxsize=None)
def sequence_step_cumulative(sizes: tuple[int, ...], singleton_only: bool = False):
    """:func:`sequence_step_weights` with the weights pre-accumulated.

    Returns ``(categories, cumulative)`` where ``cumulative`` is a
    :class:`~repro.sampling.rng.CumulativeWeights` over the same category
    order — the build-once table
    :class:`~repro.sampling.sequence_sampler.SequenceSampler` picks from
    (one ``randrange`` + one ``bisect`` per step instead of an ``O(k)``
    cumulative scan).  Memoized per live block-size state, like the weight
    table itself.
    """
    # Deferred import: ``repro.sampling`` imports this module at package
    # init, so a module-level back-import would be circular.
    from ..sampling.rng import CumulativeWeights

    categories, weights, _ = sequence_step_weights(sizes, singleton_only)
    return categories, CumulativeWeights(weights)


@lru_cache(maxsize=None)
def aggregated_step_weights(
    size_counts: tuple[tuple[int, int], ...], singleton_only: bool = False
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...], int]:
    """SampleSeq step weights aggregated over equal-size blocks (Lemma 6.2).

    The per-position weights of :func:`sequence_step_weights` depend only
    on a block's *size* and the multiset of the other live sizes, so
    positions of equal size carry equal weight and can be drawn as one
    aggregated category — first the ``(size, kind)`` class, then the
    concrete block uniformly among the live blocks of that size.  This is
    the form the vectorized sequence plane consumes: its per-sample state
    is the multiset of live sizes, not an ordered tuple.

    ``size_counts`` is the live state as sorted ``(size, count)`` pairs
    (every ``size >= 2``, every ``count >= 1``).  Returns
    ``(categories, weights, total)`` where each category is
    ``(size, removed, count)`` — ``removed`` is 1 for a single-fact
    removal, 2 for a pair — and ``weights[i]`` is the exact aggregated
    transition weight (``count * size * |CRS(after)|`` resp.
    ``count * C(size, 2) * |CRS(after)|``).  Aggregation consistency with
    the per-position table is asserted by ``tests/test_vectorized.py``.
    """
    count = count_crs1_for_block_sizes if singleton_only else count_crs_for_block_sizes
    sizes: list[int] = [s for s, c in size_counts for _ in range(c)]
    categories: list[tuple[int, int, int]] = []
    weights: list[int] = []
    for size, occurrences in size_counts:
        rest = list(sizes)
        rest.remove(size)
        categories.append((size, 1, occurrences))
        weights.append(
            occurrences * size * count(tuple(sorted(rest + [size - 1])))
        )
        if not singleton_only:
            categories.append((size, 2, occurrences))
            weights.append(
                occurrences
                * (size * (size - 1) // 2)
                * count(tuple(sorted(rest + [size - 2])))
            )
    return tuple(categories), tuple(weights), sum(weights)


def count_crs(database: Database, constraints: FDSet) -> int:
    """``|CRS(D, Σ)|`` for a set of primary keys, in polynomial time."""
    decomposition = block_decomposition(database, constraints)
    return count_crs_for_block_sizes(tuple(decomposition.sizes()))


def count_crs1(database: Database, constraints: FDSet) -> int:
    """``|CRS¹(D, Σ)|`` for a set of primary keys, in polynomial time."""
    decomposition = block_decomposition(database, constraints)
    return count_crs1_for_block_sizes(tuple(decomposition.sizes()))


def count_crs_paper_dp(sizes: tuple[int, ...] | list[int]) -> int:
    """Lemma C.1's ``P^{k,i}_j`` dynamic program, transcribed verbatim.

    ``P^{k,i}_j`` counts the sequences over the first ``j`` blocks with ``i``
    pair removals that leave ``k`` of those blocks non-empty.  Blocks are
    combined by multiplying interleaving factors
    ``(total length)! / (prefix length)! (block length)!``.
    """
    block_sizes = [s for s in sizes if s >= 2]
    if not block_sizes:
        return 1
    first = block_sizes[0]
    # table[(k, i)] = P^{k,i}_j for the current prefix of blocks.
    table: dict[tuple[int, int], int] = {}
    for i in range(max_pair_removals(first) + 1):
        empty = empty_block_sequences(first, i)
        if empty:
            table[(0, i)] = table.get((0, i), 0) + empty
        nonempty = nonempty_block_sequences(first, i)
        if nonempty:
            table[(1, i)] = table.get((1, i), 0) + nonempty
    prefix_total = first
    for block_size in block_sizes[1:]:
        updated: dict[tuple[int, int], int] = {}
        total = prefix_total + block_size
        for (k_prev, i1), previous in table.items():
            prefix_length = prefix_total - i1 - k_prev
            for i2 in range(max_pair_removals(block_size) + 1):
                i = i1 + i2
                # Case 1: the new block ends empty; k is unchanged.
                empty = empty_block_sequences(block_size, i2)
                if empty:
                    block_length = block_size - i2
                    ways = (
                        previous
                        * empty
                        * factorial(total - i - k_prev)
                        // (factorial(prefix_length) * factorial(block_length))
                    )
                    key = (k_prev, i)
                    updated[key] = updated.get(key, 0) + ways
                # Case 2: the new block keeps a fact; k increases by one.
                nonempty = nonempty_block_sequences(block_size, i2)
                if nonempty:
                    block_length = block_size - i2 - 1
                    ways = (
                        previous
                        * nonempty
                        * factorial(total - i - (k_prev + 1))
                        // (factorial(prefix_length) * factorial(block_length))
                    )
                    key = (k_prev + 1, i)
                    updated[key] = updated.get(key, 0) + ways
        table = updated
        prefix_total = total
    return sum(table.values())


def crs_length_distribution(sizes: tuple[int, ...] | list[int]) -> dict[int, int]:
    """Distribution of sequence lengths over ``CRS`` (diagnostics, tests)."""
    relevant = tuple(sorted(s for s in sizes if s >= 2))
    return dict(_crs_distribution(relevant))


def expected_sequence_length(database: Database, constraints: FDSet) -> Fraction:
    """``E[len(s)]`` for ``s`` uniform over ``CRS(D, Σ)``, in polynomial time.

    Averaging the Lemma C.1 length distribution: the expected number of
    operations the uniform-sequences repairing process performs.  A
    polynomial diagnostic the paper's machinery yields for free — validated
    against explicit-chain enumeration in the tests.
    """
    decomposition = block_decomposition(database, constraints)
    distribution = crs_length_distribution(tuple(decomposition.sizes()))
    total = sum(distribution.values())
    weighted = sum(length * count for length, count in distribution.items())
    return Fraction(weighted, total)
