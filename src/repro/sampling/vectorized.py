"""Vectorized sample plane: whole batches of repairs as packed bitset rows.

The scalar samplers (Lemma 5.2's ``RepairSampler``, Algorithm 1 /
Lemma 6.2's ``SequenceSampler``) draw one candidate repair at a time —
one Python ``randrange`` per conflicting block per sample.  This module
draws a **batch** of ``S`` samples in one shot:

* an **outcome matrix** ``O`` of shape ``(S, n_blocks)``: ``O[i, j]`` is
  block ``j``'s outcome in sample ``i`` — the index of the surviving fact
  within the block's canonical order, or the block size as the "keeps
  nothing" sentinel (Lemma 5.2's ``|B| + 1``-th outcome);
* a **packed bitset matrix** of shape ``(S, ceil(n_facts / 64))`` with
  dtype ``uint64``: row ``i`` is sample ``i``'s survivor-set bitmask,
  word ``w`` holding fact ids ``64w .. 64w + 63`` (little-endian word
  order, so ``int.from_bytes(row.tobytes(), "little")`` is the sample's
  arbitrary-precision id bitmask over the
  :class:`~repro.core.interning.InstanceIndex`).

Witness evaluation batches the same way: "witness ⊆ sample" over a whole
prefix is ``rows[:, j] & v == v`` for every non-zero word ``(j, v)`` of
the witness, one column at a time — see :func:`batch_hit_flags`.

**Distributions.**  :class:`VectorRepairPlane` draws each block's outcome
uniformly (Lemma 5.2 / Lemma E.2) — exactly the scalar law.
:class:`VectorSequencePlane` runs Algorithm 1's block-size process in two
phases justified by exchangeability: phase 1 evolves only the matrix of
live block *sizes* (the Lemma 6.2 category weights depend on nothing
else), aggregated over equal-size blocks
(:func:`~repro.counting.crs_count.aggregated_step_weights`); phase 2
exploits that victims are drawn uniformly among live facts, so given the
size trajectory each surviving block's survivor is uniform over its
facts, independently across blocks.  On primary keys every singleton
variant draws on :class:`VectorRepairPlane` with ``singleton_only``
(:func:`repro.engine.session.sampling_law`).  The one approximation in
the module: phase 1's category probabilities are exact rationals of
astronomically large CRS counts, consumed here as correctly-rounded
``float64`` cumulative probabilities — a per-step total-variation error
below ``2**-50``, orders of magnitude under any (ε, δ) of interest; the
reference ``SequenceSampler`` remains exact (``tests/test_vectorized.py``
pins the rounding gap).

**Reproducibility contract.**  A plane never consumes ``random.Random``:
batch ``b`` is drawn from the counter-based seeded substream
:func:`repro.sampling.rng.numpy_substream` ``(seed, b)`` (a Philox key
hashed once per pool, counter ``b·2**192`` per batch), so the stream is
a pure function of ``(instance structure, seed, batch index, batch
size)`` — re-drawing batch ``b`` in any process, in any order, yields
identical samples.  This is deliberately a *different* stream from the
reference samplers' ``random.Random`` stream: the two agree in
distribution (and bit-for-bit on how outcomes become masks — the decode
parity asserted by ``tests/test_vectorized.py``), not sample-for-sample.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..core.interning import InstanceIndex
from ..counting.crs_count import aggregated_step_weights
from .rng import fresh_entropy, numpy_substream, philox_key

#: Bits per packed word (the dtype of every bitset matrix is ``uint64``).
WORD_BITS = 64
#: ``id >> _WORD_SHIFT`` is ``id // WORD_BITS`` — kept derived so the word
#: geometry has one source of truth.
_WORD_SHIFT = WORD_BITS.bit_length() - 1
_WORD_MASK = (1 << WORD_BITS) - 1


def words_for(n_facts: int) -> int:
    """Packed words per sample row for an ``n_facts``-fact instance."""
    return (n_facts + WORD_BITS - 1) // WORD_BITS


def pack_masks(masks: Iterable[int], words: int):
    """Pack arbitrary-precision id bitmasks into a ``(len, words)`` matrix.

    The inverse of :func:`unpack_rows`: word ``w`` of row ``i`` holds bits
    ``64w .. 64w + 63`` of ``masks[i]`` (little-endian word order).
    """
    materialized = list(masks)
    if words == 0:
        return np.zeros((len(materialized), 0), dtype="<u8")
    data = b"".join(mask.to_bytes(words * 8, "little") for mask in materialized)
    return np.frombuffer(data, dtype="<u8").reshape(-1, words).copy()


def unpack_rows(rows) -> list[int]:
    """Packed rows back to arbitrary-precision masks (one ``int`` per row)."""
    rows = np.ascontiguousarray(rows, dtype="<u8")
    width = rows.shape[1] * 8
    data = rows.tobytes()
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(rows.shape[0])
    ]


def _word_support(mask: int):
    """``mask``'s non-zero words as ``(word index, uint64 value)`` pairs."""
    support = []
    while mask:
        word = ((mask & -mask).bit_length() - 1) >> _WORD_SHIFT
        shift = word * WORD_BITS
        support.append((word, np.uint64(mask >> shift & _WORD_MASK)))
        mask &= ~(_WORD_MASK << shift)
    return tuple(support)


def pack_witnesses(singles_mask: int, complex_masks: Sequence[int]):
    """Witness word supports pre-packed for repeated :func:`batch_hit_flags` calls.

    Returns ``(singles, complexes)``: ``singles`` is the single-fact
    union's non-zero words as ``(word index, value)`` pairs (empty when
    there are no single-fact witnesses), and ``complexes`` holds one such
    tuple per multi-fact witness.  Hit counting then reads only the
    columns a witness occupies, never the whole row.  Evaluators hold one
    per request so chunked prefix growth pays only the column tests,
    never re-packing.
    """
    return _word_support(singles_mask), tuple(map(_word_support, complex_masks))


def batch_hit_flags(
    rows,
    singles_mask: int,
    complex_masks: Sequence[int],
    always: bool,
    packed=None,
):
    """Per-row witness hits over a packed prefix, as a boolean vector.

    The batched form of the session's classified witness test: a row hits
    iff ``always`` (an empty witness exists), or it intersects the OR-union
    of the single-fact witnesses, or it contains one of the multi-fact
    witness masks (``row & w == w``) — "some witness ``w`` has
    ``w & s == w``", evaluated only over the words each witness
    occupies: the union hits where ``rows[:, j] & v`` is non-zero
    for any of its words ``(j, v)``, and a multi-fact witness where
    ``rows[:, j] & v == v`` for all of its words.  Each word is one 1-D
    operation over a strided column, so the cost follows the witnesses'
    word support, not the row width.  ``packed`` takes a
    :func:`pack_witnesses` result to skip per-call packing — this is the
    one hit-counting implementation, shared by the engine's evaluators
    and the parity tests.
    """
    count = rows.shape[0]
    if always:
        return np.ones(count, dtype=bool)
    singles, complexes = (
        packed if packed is not None else pack_witnesses(singles_mask, complex_masks)
    )
    flags = np.zeros(count, dtype=bool)
    for word, value in singles:
        flags |= (rows[:, word] & value) != 0
    for support in complexes:
        contained = np.ones(count, dtype=bool)
        for word, value in support:
            contained &= (rows[:, word] & value) == value
        flags |= contained
    return flags


class _BlockPlane:
    """Shared machinery of the two block-structured vector planes.

    Holds the interned block structure in the scalar samplers' canonical
    order, the batch substream seeding, the outcome→bitset scatter, and
    the pure-Python reference decode the parity harness replays.
    """

    def __init__(self, index: InstanceIndex, seed: int | None = None):
        self.index = index
        #: The entropy every batch substream derives from (the pool seed,
        #: or one fresh OS draw for unseeded planes — still internally
        #: consistent across batches).
        self.seed = fresh_entropy() if seed is None else seed
        self._key = philox_key(self.seed)
        blocks = index.conflicting_block_ids()
        self._blocks = blocks
        self.n_blocks = len(blocks)
        self.words = words_for(len(index))
        self._sizes = np.array([len(block) for block in blocks], dtype=np.int64)
        width = max((len(block) for block in blocks), default=0)
        lookup = np.full((self.n_blocks, width + 1), -1, dtype=np.int64)
        for position, block in enumerate(blocks):
            lookup[position, : len(block)] = block
        self._lookup = lookup
        self._kept_row = pack_masks([index.always_kept_mask()], self.words)[0]
        # Word → the block columns whose facts can land in that word
        # (typically 1–2 words per block): the scatter reduces each word
        # over only its own columns, keeping total work O(S · n_blocks)
        # instead of O(S · n_blocks · words).
        columns_of_word: dict[int, list[int]] = {}
        for position, block in enumerate(blocks):
            for word in {identifier >> _WORD_SHIFT for identifier in block}:
                columns_of_word.setdefault(word, []).append(position)
        self._word_columns = [
            (word, np.array(columns, dtype=np.int64))
            for word, columns in sorted(columns_of_word.items())
        ]

    def generator(self, batch_index: int):
        """The seeded substream for one batch (the module's seeding contract)."""
        return numpy_substream(self.seed, batch_index, key=self._key)

    def draw_batch(self, batch_index: int, size: int):
        """Draw batch ``batch_index`` of ``size`` samples.

        Returns ``(outcomes, rows)`` — the ``(size, n_blocks)`` outcome
        matrix and the ``(size, words)`` packed bitset matrix it scatters
        to.  Deterministic in ``(structure, seed, batch_index, size)``.
        """
        outcomes = self._draw_outcomes(self.generator(batch_index), size)
        return outcomes, self.scatter(outcomes)

    def _draw_outcomes(self, generator, size: int):
        raise NotImplementedError  # pragma: no cover - abstract

    def scatter(self, outcomes):
        """Outcome matrix → packed bitset matrix (always-kept facts pre-set).

        One OR-reduction per word, over only the block columns that can
        touch that word (``bitwise_or.at`` is an order of magnitude
        slower than a masked reduce for these shapes, and a full per-word
        pass over all columns would be quadratic-ish on wide instances).
        """
        count = outcomes.shape[0]
        rows = np.tile(self._kept_row, (count, 1))
        if self.n_blocks == 0 or self.words == 0:
            return rows
        ids = self._lookup[np.arange(self.n_blocks), outcomes]
        valid = ids >= 0
        shifts = np.where(valid, ids & (WORD_BITS - 1), 0).astype(np.uint64)
        bits = np.where(valid, np.left_shift(np.uint64(1), shifts), np.uint64(0))
        word_of = np.where(valid, ids >> _WORD_SHIFT, -1)
        for word, columns in self._word_columns:
            contribution = np.where(
                word_of[:, columns] == word, bits[:, columns], np.uint64(0)
            )
            rows[:, word] |= np.bitwise_or.reduce(contribution, axis=1)
        return rows

    def decode_masks(self, outcomes) -> list[int]:
        """Pure-Python reference decode of an outcome matrix.

        The parity harness: builds each sample's mask one OR per kept
        fact over the same canonical block order, never touching the
        packed matrix — so
        ``unpack_rows(scatter(O)) == decode_masks(O)`` proves the scatter.
        """
        kept = self.index.always_kept_mask()
        blocks = self._blocks
        masks = []
        for row in np.asarray(outcomes).tolist():
            mask = kept
            for position, outcome in enumerate(row):
                block = blocks[position]
                if outcome < len(block):
                    mask |= 1 << block[outcome]
            masks.append(mask)
        return masks


class VectorRepairPlane(_BlockPlane):
    """Batched uniform candidate repairs (Lemma 5.2 / Lemma E.2).

    Each conflicting block contributes one independent uniform outcome
    among its ``|B| + 1`` choices (``|B|`` with ``singleton_only``), drawn
    for the whole batch in one ``Generator.integers`` call with per-block
    upper bounds.
    """

    def __init__(
        self,
        index: InstanceIndex,
        singleton_only: bool = False,
        seed: int | None = None,
    ):
        super().__init__(index, seed)
        self.singleton_only = singleton_only
        self._bounds = self._sizes + (0 if singleton_only else 1)

    def _draw_outcomes(self, generator, size: int):
        if self.n_blocks == 0:
            return np.zeros((size, 0), dtype=np.int64)
        return generator.integers(
            0, self._bounds, size=(size, self.n_blocks), dtype=np.int64
        )


class VectorSequencePlane(_BlockPlane):
    """Batched uniform complete repairing sequences (Algorithm 1, Lemma 6.2).

    Phase 1 evolves the ``(S, n_blocks)`` matrix of live block sizes:
    samples are grouped by their multiset of live sizes, each group draws
    its aggregated ``(size, kind)`` category
    (:func:`~repro.counting.crs_count.aggregated_step_weights` cumulative
    probabilities + ``searchsorted``), and the concrete block is picked
    uniformly among the group's live blocks of that size.  Phase 2 draws
    each surviving block's survivor uniformly (exchangeability of victim
    choices) and marks emptied blocks with the sentinel outcome.
    """

    def _draw_outcomes(self, generator, size: int):
        if self.n_blocks == 0:
            return np.zeros((size, 0), dtype=np.int64)
        final_sizes = self._evolve_sizes(generator, size)
        survivors = generator.integers(
            0, self._sizes, size=(size, self.n_blocks), dtype=np.int64
        )
        return np.where(final_sizes == 0, self._sizes[None, :], survivors)

    # Phase-1 state tables: per live multiset of block sizes (encoded as
    # one integer), the padded cumulative category probabilities plus the
    # chosen category's (size, removal) metadata — dense rows so one
    # ``np.unique`` + fancy-indexing pass per step replaces any per-state
    # Python looping.

    def _max_categories(self) -> int:
        return 2 * max(int(self._sizes.max(initial=0)) - 1, 1)

    def _state_table(self, count_vector: tuple[int, ...]) -> tuple:
        """The padded table rows for one live-size state.

        Keyed by the exact tuple of per-size live-block counts (sizes
        ``2 .. max``) — a plain dict key, so distinct states can never
        collide however large the instance gets.
        """
        cache = getattr(self, "_state_tables", None)
        if cache is None:
            cache = self._state_tables = {}
        table = cache.get(count_vector)
        if table is None:
            size_counts = tuple(
                (s, c) for s, c in zip(range(2, len(count_vector) + 2), count_vector) if c
            )
            categories, probabilities = _cumulative_probabilities(size_counts)
            width = self._max_categories()
            probs = np.ones(width)
            class_sizes = np.zeros(width, dtype=np.int64)
            removals = np.zeros(width, dtype=np.int64)
            probs[: len(probabilities)] = probabilities
            for position, (block_size, removed, _) in enumerate(categories):
                class_sizes[position] = block_size
                removals[position] = removed
            table = (probs, class_sizes, removals)
            cache[count_vector] = table
        return table

    def _group_states(self, counts):
        """Group live-size count rows: ``(representative rows, membership)``.

        Fast path: rows bit-pack injectively into one int64 code (counts
        are ≤ ``n_blocks``, so each size class needs
        ``n_blocks.bit_length()`` bits) and a 1-D ``np.unique`` groups
        them.  Instances whose state needs more than 63 bits fall back to
        row-wise grouping — exact either way, never a lossy encoding.
        """
        classes = counts.shape[1]
        bits = max(self.n_blocks.bit_length(), 1)
        if classes * bits <= 63:
            encoder = np.array(
                [1 << (bits * position) for position in range(classes)],
                dtype=np.int64,
            )
            _, first_seen, membership = np.unique(
                counts @ encoder, return_index=True, return_inverse=True
            )
            return counts[first_seen], membership
        states, membership = np.unique(counts, axis=0, return_inverse=True)
        return states, membership.reshape(-1)

    def _evolve_sizes(self, generator, size: int):
        sizes = np.tile(self._sizes, (size, 1))
        max_size = int(self._sizes.max(initial=0))
        if max_size < 2:
            return sizes
        size_values = np.arange(2, max_size + 1)
        width = self._max_categories()
        while True:
            live = (sizes >= 2).any(axis=1)
            if not live.any():
                return sizes
            rows_live = np.nonzero(live)[0]
            live_sizes = sizes[rows_live]
            counts = (live_sizes[:, :, None] == size_values[None, None, :]).sum(axis=1)
            unique_states, membership = self._group_states(counts)
            prob_rows = np.empty((len(unique_states), width))
            size_rows = np.empty((len(unique_states), width), dtype=np.int64)
            removal_rows = np.empty((len(unique_states), width), dtype=np.int64)
            for position, state in enumerate(unique_states):
                table = self._state_table(tuple(int(c) for c in state))
                prob_rows[position], size_rows[position], removal_rows[position] = table
            # Category draw: index = #cumulative probabilities <= u (the
            # padding rows are 1.0, so u < 1 never selects them).
            picks = generator.random(len(rows_live))
            chosen = (picks[:, None] >= prob_rows[membership]).sum(axis=1)
            class_size = size_rows[membership, chosen]
            removal = removal_rows[membership, chosen]
            # Concrete block: exact uniform rank among the row's live
            # blocks of the chosen size, located via a cumulative count.
            matching = live_sizes == class_size[:, None]
            ranks = generator.integers(0, matching.sum(axis=1))
            columns = np.argmax(
                np.cumsum(matching, axis=1) == (ranks + 1)[:, None], axis=1
            )
            sizes[rows_live, columns] -= removal


#: Correctly-rounded float64 cumulative category probabilities per live
#: multiset state — the one place the vector plane leaves exact integer
#: arithmetic (see the module docstring).
_CUMULATIVE_CACHE: dict[tuple, tuple] = {}


def _cumulative_probabilities(size_counts):
    cached = _CUMULATIVE_CACHE.get(size_counts)
    if cached is None:
        categories, weights, total = aggregated_step_weights(size_counts)
        running = 0
        cumulative = []
        for weight in weights:
            running += weight
            cumulative.append(float(Fraction(running, total)))
        cached = (categories, np.array(cumulative))
        _CUMULATIVE_CACHE[size_counts] = cached
    return cached
