"""Estimation sessions: amortized Monte-Carlo OCQA over one instance.

:func:`repro.approx.fpras.fpras_ocqa` answers a single ``P_{M_Σ,Q}(D, c̄)``
question per call and pays the full setup cost every time: the block
decomposition is recomputed, the CRS counts re-derived, and — far worse — a
fresh stream of sampled repairs is drawn even when fifty candidate answers
share the same database.  :class:`EstimationSession` binds one
``(D, Σ, M_Σ)`` triple and amortizes all of that:

* **structural caches** — the block decomposition (Lemma 5.2) is computed
  once and shared by every sampler the session builds; the CRS counting
  DPs (Lemma C.1) are memoized process-wide already and hit warm.
* **witness caches** — for each ``(Q, c̄)`` the session enumerates the
  homomorphism images ``h(Q)`` with ``h(x̄) = c̄`` once, over ``D``.  A
  sampled repair ``S ⊆ D`` satisfies ``c̄ ∈ Q(S)`` iff it contains one of
  the inclusion-minimal images, so per-sample evaluation drops from a
  fresh backtracking join to a few subset tests.
* **the interned kernel** — the session interns ``D`` once into an
  :class:`~repro.core.interning.InstanceIndex` (dense fact ids), samplers
  draw survivor *id bitmasks* without constructing ``Operation`` or
  ``Database`` objects, and the minimal witness images become bitmasks too
  — "repair entails answer" is the integer subset test
  ``w & s == w``.
* **shared sample pools** — :class:`SamplePool` materializes one seeded
  stream of sampled repairs lazily; every request evaluates against the
  prefix it needs, so ``N`` requests cost one sampling pass plus ``N``
  cheap evaluations instead of ``N`` independent Monte-Carlo runs.
  Every pool holds its samples one way: a packed ``(S, ceil(n/64))``
  little-endian ``uint64`` bitset matrix, and witness hits are counted
  with column tests over the words each witness occupies.
* **two sample planes** — every pool draws through a plane with one
  ``draw_batch(batch_index, size)`` shape: the block-structured
  ``M_ur``/``M_us`` families through the vector plane
  (:mod:`repro.sampling.vectorized`, whole batches at once), the ``M_uo``
  walk (which has no block structure) through the walk plane
  (``_WalkPlane``), one sample per batch.  The :func:`sampling_law`
  alone decides the plane, which never changes *what* is computed.

Determinism contracts:

* **seeded** — a seed-driven pool's batch ``b``
  (:meth:`EstimationSession.pool_for_seed`, i.e. everything
  :func:`~repro.engine.batch.batch_estimate` builds) is a pure function of
  ``(instance structure, seed, b, batch size)``: vector batches come from
  counter-based ``numpy`` substreams, walk batches from a ``random.Random``
  reseeded per batch (both spelled out in :mod:`repro.sampling.rng`).  So
  a pool resumes from any persisted prefix by batch index, in any
  process, with no RNG state to carry; the vector stream is equal in
  distribution to the scalar samplers' and decode-parity-checked against
  their mask construction (``tests/test_vectorized.py``).
* **caller RNG** — a pool driven by a caller's ``random.Random``
  (``session.pool(rng)``) wraps that RNG in a walk plane that is never
  reseeded, so it draws the exact stream a per-call run seeded
  identically would, and pooled estimates are *bit-for-bit identical* to
  per-call :func:`~repro.approx.fpras.fpras_ocqa` results under the same
  seed (``tests/test_engine.py`` asserts this).

Two layers sit on top of the fixed estimators:

* **adaptive estimation** — :meth:`EstimationSession.estimate_adaptive`
  runs a sequential early-stopping estimator
  (:mod:`repro.approx.adaptive`) over the pool prefix; requests sharing
  a pool each read it from position zero, so its length is the slowest
  stopping time, not the sum;
* **persistence** — an attached :class:`~repro.engine.store.CacheEntry`
  makes the pool's sample prefix (the packed matrix's own bytes) survive
  the process (:meth:`EstimationSession.cached_pool` resumes the stream
  bit-for-bit by batch index); decompositions, positivity bounds and
  zero-test verdicts are cheaper to recompute than to load, so they stay
  per-process.

Scope enforcement is unchanged: combinations outside the paper's positive
results raise :class:`~repro.approx.fpras.FPRASUnavailable` with the same
messages as the per-call API.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..approx.adaptive import AdaptiveResult, SequentialEstimator
from ..approx.bounds import (
    rrfreq_lower_bound,
    singleton_frequency_lower_bound,
    srfreq_lower_bound,
    uo_keys_local_lower_bound,
    uo_singleton_fd_lower_bound,
)
from ..approx.intervals import ConfidenceInterval
from ..approx.montecarlo import (
    EstimateResult,
    chernoff_sample_size,
    fixed_estimate_from_total,
    fixed_sample_estimate,
    stopping_rule_estimate,
)
from ..chains.generators import (
    M_UO1,
    M_UR1,
    M_US1,
    MarkovChainGenerator,
    UniformOperations,
    UniformRepairs,
    UniformSequences,
)
from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.conflict_graph import ConflictGraph
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.interning import InstanceIndex
from ..core.queries import ConjunctiveQuery, QueryError, _bind_answer
from ..exact.possibility import image_is_consistent
from ..sampling import vectorized as vectorized_plane
from ..sampling.operations_sampler import UniformOperationsSampler
from ..sampling.repair_sampler import RepairSampler
from ..sampling.rng import fresh_entropy, resolve_rng, walk_seed
from ..sampling.sequence_sampler import SequenceSampler

if TYPE_CHECKING:  # pragma: no cover - type-only (store imports session's pool)
    from .store import CacheEntry


def _unavailable(message: str) -> RuntimeError:
    # Deferred import: fpras.py routes through this module, so the class
    # stays at its public home without a circular module-level import.
    from ..approx.fpras import FPRASUnavailable

    return FPRASUnavailable(message)


def sampling_law(
    generator: MarkovChainGenerator, constraints: FDSet
) -> MarkovChainGenerator:
    """The generator naming the law seeded pools of ``generator`` draw.

    On primary keys ``M_us,1`` and ``M_uo,1`` have ``M_ur,1``'s law — one
    uniform survivor per conflicting block, independently (Lemmas E.2,
    E.9; exact for ``M_uo,1``) — and share its seed, store entry, registry
    key, shard and plane.  Every other generator is its own law.
    """
    if generator in (M_US1, M_UO1) and constraints.is_primary_keys():
        return M_UR1
    return generator


#: Samples per vector-plane batch: each batch is one seeded substream
#: (and one store row group); the value is part of the vector stream's
#: reproducibility contract, so changing it re-keys warm vector pools.
DEFAULT_BATCH_SIZE = 512


class _WalkPlane:
    """The walk plane: one mask-drawing sampler around one ``random.Random``.

    Same ``draw_batch(batch_index, size)`` shape as the vector planes.
    Seeded, the RNG is reseeded in place with
    :func:`~repro.sampling.rng.walk_seed` ``(seed, b)`` before batch ``b``
    is drawn, so every batch is a pure function of ``(seed, b, size)``
    and seeded ``M_uo`` pools (batch size 1) resume by position like
    vector ones.  Around a caller's RNG (``seed=None``) it is never
    reseeded: batches continue the caller's stream in the order they are
    drawn — the order :class:`SamplePool` draws them, from batch 0 up.
    """

    def __init__(
        self,
        draw: Callable[[], int],
        rng: random.Random,
        index: InstanceIndex,
        seed: int | None = None,
    ):
        self._draw = draw
        self._rng = rng
        self._words = vectorized_plane.words_for(len(index))
        self.seed = seed

    def draw_batch(self, batch_index: int, size: int):
        """Draw batch ``batch_index`` of ``size`` samples as ``(None, rows)``."""
        if self.seed is not None:
            self._rng.seed(walk_seed(self.seed, batch_index))
        masks = [self._draw() for _ in range(size)]
        return None, vectorized_plane.pack_masks(masks, self._words)


class SamplePool:
    """A lazily materialized, seeded stream of sampled repairs.

    Samples are grown on demand; request ``i`` evaluates against positions
    ``0 .. n_i`` of the *same* stream.  Because every request reads from
    position zero, a pooled estimate consumes exactly the prefix a fresh
    run (seeded like the pool) would draw — which is what makes pooled
    results reproducible.

    Replay requires retention: the pool keeps every drawn sample for its
    lifetime (unlike the per-call path, which streams and discards).  For
    adaptive ``dklr`` requests on near-zero probabilities, pass
    ``max_samples`` to bound the prefix — an unbounded stopping-rule run
    would grow the pool without limit.

    **One representation.**  Every sample is a row of a capacity-doubling
    packed ``(S, ceil(n/64))`` little-endian ``uint64`` matrix over the
    pool's :class:`~repro.core.interning.InstanceIndex` (bit ``i`` of a
    row = fact ``i`` survives) — the row the cache store persists, held in
    private process memory.  :meth:`packed_prefix` is the zero-copy view hit
    counting reduces over; :meth:`mask_at` decodes one row to an
    arbitrary-precision bitmask.

    **One contract.**  ``plane`` draws batch ``b`` of ``batch_size``
    samples (a vector plane, or the one-sample-per-batch walk plane,
    which never draws past the position asked for).  ``preloaded_rows``
    warm-starts the stream with whole batches persisted by a
    :class:`~repro.engine.store.CacheEntry`; new draws continue past them
    by batch index — no RNG state is needed to resume.
    """

    def __init__(
        self,
        index: InstanceIndex,
        plane,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        preloaded_rows=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._plane = plane
        self._batch_size = batch_size
        self._index = index
        self._words = vectorized_plane.words_for(len(index))
        self._rows = None  # capacity-doubling packed matrix
        self._rows_length = 0  # valid rows in ``_rows``
        if preloaded_rows is not None and preloaded_rows.shape[0]:
            if preloaded_rows.shape[0] % batch_size:
                raise ValueError("a preloaded prefix must be whole batches")
            self._append_rows(preloaded_rows)

    @property
    def index(self) -> InstanceIndex:
        """The interning the sample rows refer to."""
        return self._index

    @property
    def words(self) -> int:
        """Packed ``uint64`` words per sample row."""
        return self._words

    @property
    def plane(self):
        """The plane drawing this pool."""
        return self._plane

    @property
    def batch_size(self) -> int:
        """Samples per materialization step (1 on the walk plane)."""
        return self._batch_size

    def __len__(self) -> int:
        """Number of samples materialized so far (not a limit)."""
        return self._rows_length

    def _append_rows(self, rows) -> None:
        """Grow the packed matrix amortized-linearly (capacity doubling)."""
        count = rows.shape[0]
        needed = self._rows_length + count
        if self._rows is None or needed > self._rows.shape[0]:
            capacity = max(needed, 2 * (self._rows.shape[0] if self._rows is not None else 0))
            grown = vectorized_plane.np.empty((capacity, self._words), dtype="<u8")
            if self._rows_length:
                grown[: self._rows_length] = self._rows[: self._rows_length]
            self._rows = grown
        self._rows[self._rows_length : needed] = rows
        self._rows_length = needed

    def ensure(self, length: int) -> None:
        """Materialize the first ``length`` samples, a whole batch at a
        time."""
        while self._rows_length < length:
            batch_index = self._rows_length // self._batch_size
            _, rows = self._plane.draw_batch(batch_index, self._batch_size)
            self._append_rows(rows)

    def packed_prefix(self, length: int):
        """The first ``length`` samples as packed ``uint64`` rows.

        The zero-copy view the batched witness evaluation reduces over
        (drawing as needed).  Rows beyond ``length`` from the final batch
        are drawn but not returned.
        """
        self.ensure(length)
        if self._rows is None:
            return vectorized_plane.np.zeros((0, self._words), dtype="<u8")
        view = self._rows[:length]
        # Read-only: a caller mutating the backing matrix would silently
        # corrupt samples, hit counts, and the persisted cache.
        view.flags.writeable = False
        return view

    def mask_at(self, position: int) -> int:
        """The ``position``-th sample as an id bitmask (decoded from its row)."""
        row = self.packed_prefix(position + 1)[position]
        return int.from_bytes(row.tobytes(), "little")


class EstimationSession:
    """Shared-state estimator for one ``(database, constraints, generator)``.

    All public entry points mirror the per-call FPRAS API; see the module
    docstring for the caching and determinism guarantees.
    """

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
        cache: "CacheEntry | None" = None,
    ):
        self.database = database
        self.constraints = constraints
        self.generator = generator
        self.cache = cache
        self._decomposition: BlockDecomposition | None = None
        self._index: InstanceIndex | None = None
        self._witnesses: dict[
            tuple[ConjunctiveQuery, tuple], tuple[frozenset[Fact], ...]
        ] = {}
        self._witness_masks: dict[tuple[ConjunctiveQuery, tuple], tuple[int, ...]] = {}
        self._witness_plans: dict[
            tuple[ConjunctiveQuery, tuple], tuple[int, tuple[int, ...], bool]
        ] = {}
        self._possible: dict[tuple[ConjunctiveQuery, tuple], bool] = {}
        self._bounds: dict[ConjunctiveQuery, float] = {}

    # -- structural caches ---------------------------------------------------------

    def decomposition(self) -> BlockDecomposition:
        """The block decomposition of ``(D, Σ)``, computed once (primary keys).

        Never persisted: the linear group-by-key recomputes faster than a
        stored copy would decode and validate.
        """
        if self._decomposition is None:
            self._decomposition = block_decomposition(self.database, self.constraints)
        return self._decomposition

    def index(self) -> InstanceIndex:
        """The session's fact interning, built once per ``(D, Σ)``.

        For primary keys the index also carries the conflicting blocks as
        id-tuples (sharing :meth:`decomposition`); for the arbitrary-FD
        generators it interns facts and masks only.
        """
        if self._index is None:
            if self.constraints.is_primary_keys():
                self._index = InstanceIndex.of(
                    self.database, decomposition=self.decomposition()
                )
            else:
                self._index = InstanceIndex.of(self.database)
        return self._index

    def ensure_supported(self) -> None:
        """Raise :class:`FPRASUnavailable` outside the paper's positive results.

        The checks and messages match :func:`repro.approx.fpras.fpras_ocqa`
        exactly (Theorems 5.1(2), 6.1(2), 7.1(2), 7.5, E.1(2), E.8(2)).
        """
        generator = self.generator
        if isinstance(generator, UniformRepairs):
            if not self.constraints.is_primary_keys():
                raise _unavailable(
                    "M_ur beyond primary keys: no FPRAS for FDs unless RP = NP "
                    "(Theorem 5.1(3)); keys are open (Prop 5.5 rules out repair "
                    "counting)."
                )
        elif isinstance(generator, UniformSequences):
            if not self.constraints.is_primary_keys():
                raise _unavailable(
                    "M_us beyond primary keys is open; the paper conjectures no "
                    "FPRAS even for keys (Section 6)."
                )
        elif isinstance(generator, UniformOperations):
            if not generator.singleton_only and not self.constraints.all_keys():
                raise _unavailable(
                    "M_uo with non-key FDs: the target probability can be "
                    "exponentially small (Prop D.6), so Monte Carlo cannot give "
                    "an FPRAS; use M_uo,1 (Theorem 7.5) instead."
                )
        else:
            raise _unavailable(
                f"no FPRAS dispatch for generator {generator.name!r}"
            )

    def sampler(self, rng: random.Random | None = None):
        """A sampler for the session's generator, reusing cached structure."""
        self.ensure_supported()
        rng = resolve_rng(rng)
        singleton = self.generator.singleton_only
        if isinstance(self.generator, UniformRepairs):
            return RepairSampler(
                self.database,
                self.constraints,
                singleton,
                rng,
                decomposition=self.decomposition(),
                index=self.index(),
            )
        if isinstance(self.generator, UniformSequences):
            return SequenceSampler(
                self.database,
                self.constraints,
                singleton,
                rng,
                decomposition=self.decomposition(),
                index=self.index(),
            )
        return UniformOperationsSampler(self.database, self.constraints, singleton, rng)

    def _draw_mask(self, rng: random.Random | None) -> Callable[[], int]:
        """A thunk drawing one sampled repair as an id bitmask.

        The block-structured samplers draw masks natively (no
        ``Operation``/``Database`` objects per draw); the ``M_uo`` walk
        draws objects and interns the result.
        """
        sampler = self.sampler(rng)
        if isinstance(sampler, (RepairSampler, SequenceSampler)):
            return sampler.sample_mask
        index = self.index()
        return lambda: index.mask_of(sampler.sample().facts)

    def pool(self, rng: random.Random | None = None) -> SamplePool:
        """One shared, lazily grown sample stream driven by a caller's RNG.

        A walk plane around ``rng``, never reseeded, one sample per
        batch — so the pool draws exactly what a per-call run seeded
        identically draws (the caller-RNG parity contract), on every
        generator.  Seed-driven callers go through :meth:`pool_for_seed`.
        """
        rng = resolve_rng(rng)
        plane = _WalkPlane(self._draw_mask(rng), rng, self.index())
        return SamplePool(self.index(), plane, batch_size=1)

    @property
    def seeded_plane(self) -> str:
        """The plane seed-driven pools draw on: ``"vector"`` | ``"scalar"``.

        The one place the plane is decided, from the :func:`sampling_law`:
        the block-structured ``M_ur``/``M_us`` laws have a vector plane,
        the ``M_uo`` walk does not and draws on the (scalar) walk plane.
        """
        law = sampling_law(self.generator, self.constraints)
        if isinstance(law, (UniformRepairs, UniformSequences)):
            return "vector"
        return "scalar"

    def vector_plane(self, seed: int | None = None):
        """A vectorized sample plane for this session's sampling law.

        One :class:`~repro.sampling.vectorized.VectorRepairPlane` /
        :class:`~repro.sampling.vectorized.VectorSequencePlane` over the
        session's interning, seeded per the plane's substream contract.
        Also the handle the decode-parity harness uses: a fresh plane with
        the same seed re-draws any pool batch exactly.
        """
        self.ensure_supported()
        law = sampling_law(self.generator, self.constraints)
        if isinstance(law, UniformRepairs):
            singleton = law.singleton_only
            return vectorized_plane.VectorRepairPlane(self.index(), singleton, seed)
        if isinstance(law, UniformSequences):
            return vectorized_plane.VectorSequencePlane(self.index(), seed)
        raise ValueError(
            f"no vector plane for generator {self.generator.name!r}"
        )

    def pool_for_seed(self, seed: int | None, *, batch_size: int | None = None) -> SamplePool:
        """A pool for an integer seed, on the generator's plane.

        The entry point :func:`~repro.engine.batch.batch_estimate` uses:
        the vector plane for the ``M_ur``/``M_us`` laws (batches of
        :data:`DEFAULT_BATCH_SIZE`), the walk plane reseeded per sample
        otherwise.  ``seed=None`` draws one fresh entropy value and uses it
        as the seed of every batch.
        """
        if batch_size is None:
            batch_size = self._seeded_batch_size()
        return self._seeded_pool(seed, batch_size)

    def _seeded_batch_size(self) -> int:
        return DEFAULT_BATCH_SIZE if self.seeded_plane == "vector" else 1

    def _seeded_pool(self, seed, batch_size, preloaded_rows=None) -> SamplePool:
        if self.seeded_plane == "vector":
            plane = self.vector_plane(seed)
        else:
            seed = fresh_entropy() if seed is None else seed
            rng = random.Random(walk_seed(seed, 0))  # reseeded before every batch
            plane = _WalkPlane(self._draw_mask(rng), rng, self.index(), seed)
        return SamplePool(
            self.index(), plane, batch_size=batch_size, preloaded_rows=preloaded_rows
        )

    def cached_pool(self, seed: int | None) -> SamplePool:
        """A pool warm-started from the session's cache entry (if possible).

        Persisted rows preload the stream and drawing resumes by batch
        index where the cold run stopped, so warm draws continue the cold
        run's stream bit-for-bit.  Without a cache entry or a seed this
        degrades to a plain :meth:`pool_for_seed` (an unseeded stream is
        not reproducible, so persisting it would be meaningless).

        The plane comes from the sampling law alone, never from what the
        entry holds: a prefix drawn with another batch size (a foreign
        stream) or ending in a torn batch cannot be extended, so it is
        discarded and redrawn.
        """
        if self.cache is None or seed is None:
            return self.pool_for_seed(seed)
        cache = self.cache
        batch_size = self._seeded_batch_size()
        # The persisted blob IS the pool's matrix: preloaded as decoded.
        rows = cache.sample_word_rows()
        if len(rows) and (cache.sample_batch() != batch_size or len(rows) % batch_size):
            cache.discard_samples()
            rows = None
        pool = self._seeded_pool(seed, batch_size, rows)
        cache.attach_pool(pool)
        return pool

    # -- per-(query, answer) caches --------------------------------------------------

    def positivity_bound(self, query: ConjunctiveQuery) -> float:
        """The paper's positivity lower bound for this generator and query.

        Mirrors the per-call dispatch: Lemmas 5.3 / 6.3 for ``M_ur`` /
        ``M_us``, Lemmas E.3 / E.10 for their singleton variants, Lemma D.8
        for ``M_uo,1``.  Plain ``M_uo`` cannot size samples from Prop 7.3's
        astronomically small polynomial.  On primary keys it takes the
        ``rrfreq`` floor ``1/(2|D|)^|Q|``, which holds there: a block of
        ``m`` facts keeps a given one with probability ``(1 − e_m)/m ≥
        1/(2m)``, ``e_m ≤ 1/2`` being the chance the block ends empty.
        Beyond primary keys it takes
        :func:`~repro.approx.bounds.uo_keys_local_lower_bound` at the
        conflict graph's maximum degree.
        """
        cached = self._bounds.get(query)
        if cached is not None:
            return cached
        self.ensure_supported()
        singleton = self.generator.singleton_only
        if isinstance(self.generator, UniformRepairs):
            bound = (
                singleton_frequency_lower_bound(self.database, query)
                if singleton
                else rrfreq_lower_bound(self.database, query)
            )
        elif isinstance(self.generator, UniformSequences):
            bound = (
                singleton_frequency_lower_bound(self.database, query)
                if singleton
                else srfreq_lower_bound(self.database, query)
            )
        elif singleton:
            bound = uo_singleton_fd_lower_bound(self.database, query)
        elif self.constraints.is_primary_keys():
            bound = rrfreq_lower_bound(self.database, query)
        else:
            degree = ConflictGraph.of(self.database, self.constraints).max_degree()
            bound = uo_keys_local_lower_bound(query.atom_count(), degree)
        value = float(bound)
        self._bounds[query] = value
        return value

    def witnesses(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[frozenset[Fact], ...]:
        """Inclusion-minimal homomorphism images ``h(Q)`` with ``h(x̄) = c̄``.

        Every sampled repair is a subset of ``D``, so a sample ``S`` entails
        the answer iff ``w ⊆ S`` for some witness ``w`` — evaluated once per
        sample with subset tests instead of a backtracking join.  An empty
        tuple means no homomorphism exists (probability zero everywhere).
        """
        key = (query, answer)
        cached = self._witnesses.get(key)
        if cached is None:
            cached = self._compute_witnesses(query, answer)
            self._witnesses[key] = cached
        return cached

    def _compute_witnesses(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[frozenset[Fact], ...]:
        if len(answer) != len(query.answer_variables):
            return ()
        # The same binding ``entails`` uses, so the witness semantics can
        # never drift from direct query evaluation.
        fixed = _bind_answer(query.answer_variables, answer)
        if fixed is None:
            return ()
        images = set()
        for homomorphism in query.homomorphisms(self.database, fixed=fixed):
            images.add(query.image(homomorphism))
        minimal = [
            image for image in images if not any(other < image for other in images)
        ]
        minimal.sort(key=lambda image: (len(image), sorted(map(str, image))))
        return tuple(minimal)

    def witness_masks(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[int, ...]:
        """The :meth:`witnesses` images as id bitmasks over :meth:`index`.

        A sample mask ``s`` entails the answer iff ``w & s == w`` for some
        witness mask ``w`` — the integer form of the subset test, cached per
        ``(query, answer)`` like the object witnesses themselves.
        """
        key = (query, answer)
        cached = self._witness_masks.get(key)
        if cached is None:
            index = self.index()
            cached = tuple(
                index.mask_of(witness) for witness in self.witnesses(query, answer)
            )
            self._witness_masks[key] = cached
        return cached

    def is_possible(self, query: ConjunctiveQuery, answer: tuple = ()) -> bool:
        """Cached polynomial zero-test (see :mod:`repro.exact.possibility`).

        ``P > 0`` under every uniform generator iff some witness image is
        conflict-free; pairwise consistency is closed under subsets, so
        checking the inclusion-minimal witnesses is equivalent.
        """
        key = (query, answer)
        cached = self._possible.get(key)
        if cached is None:
            cached = any(
                image_is_consistent(witness, self.constraints)
                for witness in self.witnesses(query, answer)
            )
            self._possible[key] = cached
        return cached

    @staticmethod
    def _entails_mask(witness_masks: tuple[int, ...], sample_mask: int) -> bool:
        return any(witness & sample_mask == witness for witness in witness_masks)

    def _witness_eval(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[int, tuple[int, ...], bool]:
        """The witness masks classified for the hot loop (cached).

        Returns ``(singles, complexes, always)``: the OR-union of all
        single-fact witness masks (a sample hits one iff ``mask & singles``
        is non-zero — one AND for the whole group, the overwhelmingly
        common case for per-fact survival workloads), the remaining
        multi-fact witness masks (each needing its own subset test), and
        whether an *empty* witness exists (the query is entailed by every
        sample) — the classification the per-word column tests of
        :func:`~repro.sampling.vectorized.batch_hit_flags` consume.
        """
        key = (query, answer)
        plan = self._witness_plans.get(key)
        if plan is None:
            singles = 0
            complexes = []
            always = False
            for witness in self.witness_masks(query, answer):
                if witness == 0:
                    always = True
                elif witness & (witness - 1) == 0:
                    singles |= witness
                else:
                    complexes.append(witness)
            plan = (singles, tuple(complexes), always)
            self._witness_plans[key] = plan
        return plan

    def _evaluator(
        self, pool: SamplePool, query: ConjunctiveQuery, answer: tuple
    ) -> "_PoolEvaluator":
        """Hit evaluation of one request against one pool."""
        return _PoolEvaluator(self, pool, query, answer)

    # -- estimation ------------------------------------------------------------------

    def estimate(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: random.Random | None = None,
        method: str = "auto",
        p_lower: float | None = None,
        max_samples: int | None = None,
    ) -> EstimateResult:
        """Per-call twin of :func:`~repro.approx.fpras.fpras_ocqa`.

        Draws a fresh sample stream from ``rng``; the result is bit-for-bit
        identical to the per-call API under the same seed, the caches only
        make it cheaper.
        """
        rng = resolve_rng(rng)
        draw_mask = self._draw_mask(rng)  # raises FPRASUnavailable first
        if not self.is_possible(query, answer):
            return self._certified_zero(epsilon, delta)
        masks = self.witness_masks(query, answer)

        def draw() -> float:
            return 1.0 if self._entails_mask(masks, draw_mask()) else 0.0

        return self._run(draw, query, epsilon, delta, method, p_lower, max_samples)

    def estimate_pooled(
        self,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        p_lower: float | None = None,
        max_samples: int | None = None,
    ) -> EstimateResult:
        """Like :meth:`estimate`, but drawing from a shared :class:`SamplePool`.

        Each request reads the pool from position zero, so ``N`` pooled
        requests share one sampling pass instead of performing ``N``.  For
        a pool built from a caller's ``random.Random`` (:meth:`pool`) the
        result equals ``estimate(..., rng=random.Random(seed))`` under the
        same seed; seeded pools are equally deterministic but follow the
        seeded contract (module docstring), so their results replay seeded
        runs, not ``random.Random`` ones.
        """
        self.ensure_supported()
        if not self.is_possible(query, answer):
            return self._certified_zero(epsilon, delta)
        evaluator = self._evaluator(pool, query, answer)
        resolved, budget, _ = self._resolve_method(
            query, epsilon, delta, method, p_lower
        )
        if resolved == "fixed":
            # One packed-prefix pass instead of ``budget``
            # per-position tests.  The hit count is the exact float total
            # ``fixed_sample_estimate`` would accumulate from the same
            # indicator stream, built into a result by the same
            # constructor — and the prefix drawn is exactly ``budget``
            # long on a one-sample-per-batch pool, as the per-call loop
            # draws.
            return fixed_estimate_from_total(
                evaluator.count(budget), budget, epsilon, delta
            )
        position = 0

        def draw() -> float:
            nonlocal position
            entailed = evaluator.flag(position)
            position += 1
            return 1.0 if entailed else 0.0

        return stopping_rule_estimate(draw, epsilon, delta, max_samples=max_samples)

    # -- adaptive estimation -----------------------------------------------------------

    def estimate_adaptive(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: random.Random | None = None,
        pool: SamplePool | None = None,
        max_samples: int | None = None,
    ) -> AdaptiveResult:
        """Sequential early-stopping estimate of ``P_{M_Σ,Q}(D, c̄)``.

        Runs a :class:`~repro.approx.adaptive.SequentialEstimator` over the
        pool's prefix (a fresh ``rng``-seeded pool when none is given).  The
        (ε, δ) contract matches the fixed path — the estimator's fallback
        cap *is* the fixed Chernoff budget — but easy answers stop after a
        small fraction of it.  Reading the pool from position zero keeps
        adaptive runs replayable against fixed runs on the same seed.
        """
        if pool is None:
            pool = self.pool(rng)
        else:
            self.ensure_supported()
        # The zero-test runs before the estimator validates (ε, δ), so an
        # impossible answer is certified whatever its parameters.
        if not self.is_possible(query, answer):
            return self._certified_zero_adaptive(epsilon, delta)
        estimator = SequentialEstimator(
            epsilon,
            delta,
            p_lower=self.positivity_bound(query),
            max_samples=max_samples,
        )
        evaluator = self._evaluator(pool, query, answer)
        position = 0
        while not estimator.offer(1.0 if evaluator.flag(position) else 0.0):
            position += 1
        return estimator.result()

    @staticmethod
    def _certified_zero_adaptive(epsilon: float, delta: float) -> AdaptiveResult:
        return AdaptiveResult(
            estimate=0.0,
            samples_used=0,
            epsilon=epsilon,
            delta=delta,
            method="possibility-zero",
            interval=ConfidenceInterval(
                lower=0.0, upper=0.0, confidence=1.0, method="possibility-zero"
            ),
            certified_zero=True,
        )

    def fixed_budget(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        samples: int = 10_000,
        rng: random.Random | None = None,
    ) -> EstimateResult:
        """Per-call twin of :func:`~repro.approx.fpras.fixed_budget_estimate`."""
        rng = resolve_rng(rng)
        draw_mask = self._draw_mask(rng)
        self._budget_witnesses(query, answer)
        masks = self.witness_masks(query, answer)
        hits = sum(
            1 for _ in range(samples) if self._entails_mask(masks, draw_mask())
        )
        return self._budget_result(hits, samples)

    def fixed_budget_pooled(
        self,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        samples: int = 10_000,
    ) -> EstimateResult:
        """Fixed-budget estimate over a shared pool's first ``samples`` draws."""
        self.ensure_supported()
        self._budget_witnesses(query, answer)
        hits = self._evaluator(pool, query, answer).count(samples)
        return self._budget_result(hits, samples)

    def _budget_witnesses(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[frozenset[Fact], ...]:
        # The budget estimators keep entails()'s arity error, which the
        # (ε, δ) path never reaches (its zero-test returns first).
        if len(answer) != len(query.answer_variables):
            raise QueryError(
                f"answer arity {len(answer)} does not match "
                f"|x̄| = {len(query.answer_variables)}"
            )
        return self.witnesses(query, answer)

    @staticmethod
    def _budget_result(hits: int, samples: int) -> EstimateResult:
        return EstimateResult(
            estimate=hits / samples,
            samples_used=samples,
            epsilon=float("nan"),
            delta=float("nan"),
            method="fixed-budget",
            certified_zero=(hits == 0),
        )

    @staticmethod
    def _certified_zero(epsilon: float, delta: float) -> EstimateResult:
        # The polynomial zero-test: no conflict-free image of the query
        # exists, so the probability is exactly 0 under every generator —
        # certify without spending a single sample.
        return EstimateResult(
            estimate=0.0,
            samples_used=0,
            epsilon=epsilon,
            delta=delta,
            method="possibility-zero",
            certified_zero=True,
        )

    def _resolve_method(
        self,
        query: ConjunctiveQuery,
        epsilon: float,
        delta: float,
        method: str,
        p_lower: float | None,
    ) -> tuple[str, int | None, float]:
        """``(resolved method, fixed budget or None, positivity bound)``.

        The one implementation of the ``auto`` dispatch: the per-call and
        pooled estimate paths both read it, so "which estimator will run,
        over how many samples" can never drift between them.
        """
        from ..approx.fpras import AUTO_FIXED_BUDGET

        bound = p_lower if p_lower is not None else self.positivity_bound(query)
        if method == "auto":
            budget = chernoff_sample_size(epsilon, delta, bound)
            method = "fixed" if budget <= AUTO_FIXED_BUDGET else "dklr"
        if method == "fixed":
            return "fixed", chernoff_sample_size(epsilon, delta, bound), bound
        if method == "dklr":
            return "dklr", None, bound
        raise ValueError(f"unknown method {method!r}")

    def _run(
        self,
        draw: Callable[[], float],
        query: ConjunctiveQuery,
        epsilon: float,
        delta: float,
        method: str,
        p_lower: float | None,
        max_samples: int | None,
    ) -> EstimateResult:
        resolved, _, bound = self._resolve_method(
            query, epsilon, delta, method, p_lower
        )
        if resolved == "fixed":
            return fixed_sample_estimate(draw, epsilon, delta, bound)
        return stopping_rule_estimate(draw, epsilon, delta, max_samples=max_samples)


class _PoolEvaluator:
    """Hit evaluation of one ``(query, answer)`` against one pool's prefix.

    Hits are computed with per-word column tests
    (:func:`repro.sampling.vectorized.batch_hit_flags`) over only the
    words the witnesses occupy in the pool's rows, and cached:
    :meth:`count` folds a known-length prefix in one pass, and
    :meth:`flag` serves positions out of the evaluated prefix.  Growth
    follows the pool's batch size — a vector pool grows a batch at a
    time, a walk-plane pool exactly to the position asked for, so a pool
    driven by a caller's ``random.Random`` draws what a per-call run
    would.  Rows the pool already holds are evaluated ahead
    geometrically, so a warm prefix costs one pass per doubling, not one
    per position.
    """

    __slots__ = (
        "_pool",
        "_always",
        "_singles",
        "_complexes",
        "_witness_support",
        "_flags",
        "_evaluated",
    )

    def __init__(
        self,
        session: EstimationSession,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple,
    ):
        self._pool = pool
        self._singles, self._complexes, self._always = session._witness_eval(
            query, answer
        )
        # Packed once per evaluator: the witnesses' word supports are
        # fixed for its lifetime, so growth pays only the column tests.
        self._witness_support = vectorized_plane.pack_witnesses(
            self._singles, self._complexes
        )
        self._flags = vectorized_plane.np.zeros(0, dtype=bool)
        self._evaluated = 0

    def _ensure_flags(self, length: int) -> None:
        if self._evaluated >= length:
            return
        rows = self._pool.packed_prefix(length)
        fresh = vectorized_plane.batch_hit_flags(
            rows[self._evaluated :],
            self._singles,
            self._complexes,
            self._always,
            packed=self._witness_support,
        )
        if length > self._flags.shape[0]:
            # Capacity doubling: chunked dklr/adaptive growth stays
            # amortized-linear instead of re-concatenating per chunk.
            grown = vectorized_plane.np.zeros(
                max(length, 2 * self._flags.shape[0]), dtype=bool
            )
            grown[: self._evaluated] = self._flags[: self._evaluated]
            self._flags = grown
        self._flags[self._evaluated : length] = fresh
        self._evaluated = length

    def flag(self, position: int) -> bool:
        """Whether sample ``position`` entails the answer."""
        if position >= self._evaluated:
            chunk = self._pool.batch_size
            drawn = ((position // chunk) + 1) * chunk
            ahead = min(len(self._pool), 2 * self._evaluated)
            self._ensure_flags(max(drawn, ahead))
        return bool(self._flags[position])

    def count(self, length: int) -> int:
        """Hits among the first ``length`` samples."""
        self._ensure_flags(length)
        return int(self._flags[:length].sum())
