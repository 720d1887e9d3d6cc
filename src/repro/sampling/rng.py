"""Random-number utilities shared by the samplers.

All scalar samplers take an optional :class:`random.Random`; passing a
seeded instance makes every experiment reproducible.  ``weighted_choice``
works on exact integer weights so that sampling distributions match the
paper's rational transition probabilities (Lemma 6.2) with no
floating-point drift; :class:`CumulativeWeights` is its build-once form
for hot loops that draw from the same weight table many times.

**Vector-plane substreams.**  The vectorized sample plane
(:mod:`repro.sampling.vectorized`) does not consume ``random.Random`` at
all: it derives one counter-based substream per sample *batch* via
:func:`numpy_substream`.  The reproducibility contract, in one sentence:
**a pool seed hashes once to a 128-bit Philox key
(``SeedSequence(entropy=seed mod 2**128).generate_state(2)``,
:func:`philox_key`), and batch ``b`` is drawn from
``Philox(key, counter = b · 2**192)``** — counter blocks are 256-bit and
a batch never consumes ``2**192`` of them, so substreams cannot overlap,
and the stream is a pure function of ``(seed, batch index, batch
size)``: independent of request order, of how far previous requests grew
the pool, and of the process that draws it.  (Counter-based keying is
why batch construction is a few microseconds — no per-batch seed
hashing.)  The ``M_uo`` walk plane, which draws with ``random.Random``,
keeps the same pure-function contract by reseeding its one RNG with
:func:`walk_seed` ``= (seed mod 2**128) · 2**64 + b`` before batch ``b``.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def resolve_rng(rng: random.Random | None) -> random.Random:
    """The given generator, or a fresh unseeded one.

    The documented escape hatch from seed discipline: callers that
    *choose* irreproducibility (``rng=None``) funnel through here, so
    there is exactly one entropy-seeded construction site in the
    package and everything else must thread a seed.
    """
    return rng if rng is not None else random.Random()  # repro-lint: disable=RL001


class CumulativeWeights:
    """A build-once cumulative table for repeated exact weighted draws.

    :func:`weighted_choice` re-scans its weight list on every call; hot
    loops that draw from the *same* table many times (e.g. the sequence
    sampler's per-state category draw, Lemma 6.2) build one
    ``CumulativeWeights`` instead — the cumulative sums are accumulated
    once (``itertools.accumulate``) and each draw is a single
    ``randrange`` plus a ``bisect``.  Draws consume the RNG exactly like
    ``weighted_choice`` (one ``randrange(total)``) and return the same
    index, so swapping one for the other never changes a seeded stream.
    """

    __slots__ = ("cumulative", "total")

    def __init__(self, weights: Sequence[int]):
        self.cumulative: tuple[int, ...] = tuple(accumulate(weights))
        if not self.cumulative or self.cumulative[-1] <= 0:
            raise ValueError("total weight must be positive")
        self.total: int = self.cumulative[-1]

    def __len__(self) -> int:
        """Number of categories in the table."""
        return len(self.cumulative)

    def pick(self, rng: random.Random) -> int:
        """One exact draw: index ``i`` with probability ``weights[i]/total``."""
        return bisect_right(self.cumulative, rng.randrange(self.total))

    def choice(self, items: Sequence[T], rng: random.Random) -> T:
        """Like :meth:`pick`, but returning ``items[i]`` directly."""
        if len(items) != len(self.cumulative):
            raise ValueError("items and weights must have equal length")
        return items[self.pick(rng)]


def weighted_choice(items: Sequence[T], weights: Sequence[int], rng: random.Random) -> T:
    """Choose ``items[i]`` with probability ``weights[i] / sum(weights)``.

    Weights are exact non-negative integers (e.g. subtree sequence counts),
    so the induced distribution is exactly the intended rational one.
    One-shot convenience over :class:`CumulativeWeights` (same RNG
    consumption: a single ``randrange`` of the total).
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    return CumulativeWeights(weights).choice(items, rng)


def uniform_choice(items: Sequence[T], rng: random.Random) -> T:
    """Choose uniformly among ``items`` (which must be non-empty)."""
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    return items[rng.randrange(len(items))]


def philox_key(seed: int | None):
    """The 128-bit Philox key a pool seed hashes to (module docstring).

    One ``SeedSequence`` expansion per *pool* — planes cache the result
    and pass it back to :func:`numpy_substream`, so per-batch substream
    construction never re-hashes.  With ``seed=None`` the entropy comes
    from the OS — callers wanting a reproducible but unseeded *pool*
    should draw one value via :func:`fresh_entropy` and treat it as the
    seed for every batch.
    """
    entropy = fresh_entropy() if seed is None else seed % (1 << 128)
    return np.random.SeedSequence(entropy=entropy).generate_state(2, dtype=np.uint64)


def numpy_substream(seed: int | None, stream: int, key=None):
    """A ``numpy.random.Generator`` for one vector-plane substream.

    Implements the seeding contract of the module docstring: substream
    ``stream`` of pool seed ``seed`` is
    ``Philox(key=philox_key(seed), counter=stream * 2**192)``.  Passing a
    cached ``key`` skips the per-call hash (planes do); the result is
    identical either way.
    """
    if key is None:
        key = philox_key(seed)
    bit_generator = np.random.Philox(key=key, counter=stream << 192)
    return np.random.Generator(bit_generator)


def walk_seed(seed: int, batch_index: int) -> int:
    """The ``random.Random`` seed of walk-plane batch ``batch_index``.

    ``(seed mod 2**128) · 2**64 + batch_index``: distinct batches of one
    pool, and equal batches of distinct pool seeds (mod ``2**128``, as
    :func:`philox_key` reduces them), never share a seed.
    """
    return (seed % (1 << 128)) << 64 | batch_index


def fresh_entropy() -> int:
    """One OS-derived 128-bit entropy value for an unseeded vector pool."""
    return int.from_bytes(os.urandom(16), "little")
