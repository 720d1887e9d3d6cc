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
* **one witness record per answer** — for each ``(Q, c̄)`` the session
  enumerates the homomorphism images ``h(Q)`` with ``h(x̄) = c̄`` once,
  over ``D``.  A sampled repair ``S ⊆ D`` satisfies ``c̄ ∈ Q(S)`` iff it
  contains one of the inclusion-minimal images, so per-sample evaluation
  drops from a fresh backtracking join to a few subset tests; ``P > 0``
  iff one of them is conflict-free.  One frozen record per ``(Q, c̄)``
  holds what the witnesses decide: their id masks, the zero-test verdict,
  their packed hit supports and the answer's positivity bound, which
  sizes every budget of a request for that answer.
* **interned samples** — the session interns ``D`` once into an
  :class:`~repro.core.interning.InstanceIndex` (dense fact ids); samples
  are survivor id bitmasks packed into rows, with no ``Operation`` or
  ``Database`` objects per draw, and the minimal witness images become
  bitmasks too — "repair entails answer" is the subset test
  ``w & s == w``.
* **shared sample pools** — :class:`SamplePool` materializes one seeded
  stream of sampled repairs lazily; every request evaluates against the
  prefix it needs, so ``N`` requests cost one sampling pass plus ``N``
  cheap evaluations instead of ``N`` independent Monte-Carlo runs.
  Every pool holds its samples one way: a packed ``(S, ceil(n/64))``
  little-endian ``uint64`` bitset matrix, and witness hits are counted
  with column tests over the words each witness occupies.
* **one law table** — the :func:`sampling_law`'s :data:`LAWS` entry
  alone decides scope, positivity bounds, plane and exact truth.  Every
  plane is built the same way, ``Law.plane(session, seed)``, draws with
  one ``draw_batch(batch_index, size)`` shape and carries its
  ``batch_size`` and ``label`` as class attributes: the block-structured
  ``M_ur``/``M_us`` laws on a vector plane (:mod:`repro.sampling.vectorized`,
  batches of 512, ``"vector"``), the ``M_uo`` walks on the walk plane
  (``_WalkPlane``, one sample per batch, ``"scalar"``).  A pool takes its
  batch size from its plane, and the plane never changes *what* is
  computed.

One determinism contract: a pool's batch ``b`` is a pure function of
``(instance structure, seed, b, batch size)`` — vector batches come from
counter-based ``numpy`` substreams, walk batches from a ``random.Random``
reseeded per batch (both spelled out in :mod:`repro.sampling.rng`).  So a
pool resumes from any persisted prefix by batch index, in any process,
with no RNG state to carry; the vector stream is equal in distribution to
the reference object samplers' and decode-parity-checked against them
(``tests/test_vectorized.py``).  A caller's ``random.Random``
(:meth:`EstimationSession.pool`, and so every per-call estimate) only
supplies the seed: one ``getrandbits(64)`` draw, after which the pool is
the seeded pool :meth:`EstimationSession.pool_for_seed` builds for it.
Per-call results are therefore reproducible per seed and equal pooled
estimates over that pool.

Two layers sit on top of the estimators:

* **request plans** — :meth:`EstimationSession.plan` decides, before any
  draw, how a request runs (a certified zero, a fixed Chernoff budget,
  the ``dklr`` stopping rule or the sequential early-stopping estimator
  of :mod:`repro.approx.adaptive`) and the most samples it may read; one
  executor runs the plan over the pool prefix, which requests sharing a
  pool each read from position zero, so its length is the longest run,
  not the sum;
* **persistence** — an attached :class:`~repro.engine.store.CacheEntry`
  makes the pool's sample prefix (the packed matrix's own bytes) survive
  the process (:meth:`EstimationSession.cached_pool` resumes the stream
  bit-for-bit by batch index); decompositions, positivity bounds and
  zero-test verdicts are cheaper to recompute than to load, so they stay
  per-process.

Combinations outside the paper's positive results raise
:class:`~repro.approx.fpras.FPRASUnavailable` with the law's message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import count
from typing import TYPE_CHECKING, Callable

from ..approx.adaptive import AdaptiveResult, SequentialEstimator, adaptive_estimate
from ..approx.bounds import (
    float_at_most,
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
    stopping_rule_estimate,
)
from ..chains.generators import (
    M_UO1,
    M_UR1,
    M_US1,
    MarkovChainGenerator,
    UniformRepairs,
    UniformSequences,
)
from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.graphs import conflict_graph
from ..core.interning import InstanceIndex
from ..core.queries import ConjunctiveQuery, _bind_answer
from ..counting.survival import ground_survival_mur, ground_survival_mus
from ..exact.possibility import image_is_consistent
from ..sampling import vectorized as vectorized_plane
from ..sampling.operations_sampler import UniformOperationsSampler
from ..sampling.repair_sampler import RepairSampler
from ..sampling.rng import fresh_entropy, resolve_rng, walk_seed
from ..sampling.sequence_sampler import SequenceSampler

if TYPE_CHECKING:  # pragma: no cover - type-only (store imports session's pool)
    from .store import CacheEntry


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


class _WalkPlane:
    """The walk plane: ``M_uo``'s local walk (Lemma 7.2), one sample per batch.

    Same shape as the vector planes (:class:`~repro.sampling.vectorized._BlockPlane`):
    built from ``(session, seed)``, carrying ``index``, ``words`` and
    ``seed``, drawing batch ``b`` with ``draw_batch(b, size)``.  The
    session's sampler runs on one ``random.Random`` reseeded in place with
    :func:`~repro.sampling.rng.walk_seed` ``(seed, b)`` before batch ``b``
    is drawn, so every batch is a pure function of ``(seed, b, size)`` and
    walk pools resume by position like vector ones.
    """

    batch_size = 1
    label = "scalar"

    def __init__(self, session: "EstimationSession", seed: int | None = None):
        self.index = session.index()
        self.words = vectorized_plane.words_for(len(self.index))
        self.seed = fresh_entropy() if seed is None else seed
        self._rng = random.Random(walk_seed(self.seed, 0))  # reseeded per batch
        self._sampler = session.sampler(self._rng)

    def draw_batch(self, batch_index: int, size: int):
        """Draw batch ``batch_index`` of ``size`` samples as ``(None, rows)``."""
        self._rng.seed(walk_seed(self.seed, batch_index))
        masks = [self.index.mask_of(self._sampler.sample().facts) for _ in range(size)]
        return None, vectorized_plane.pack_masks(masks, self.words)


@dataclass(frozen=True)
class Law:
    """One sampling law: its scope, positivity bounds, plane and exact truth.

    Outside ``in_scope(Σ)`` sessions raise
    :class:`~repro.approx.fpras.FPRASUnavailable` with ``unavailable``;
    ``bound(D, Σ, Q)`` is the paper's floor for every answer of ``Q``;
    ``plane(session, seed)`` builds the law's plane — a vector plane for
    the block laws, :class:`_WalkPlane` for the ``M_uo`` walks — whose
    ``batch_size`` and ``label`` are class attributes; ``survival(D, Σ,
    facts, decomposition=)`` is the exact ground-survival rational
    (``None``: no closed form), and the largest survival of an answer's
    conflict-free witnesses lifts that answer's bound above the floor.
    """

    name: str
    in_scope: Callable[[FDSet], bool]
    unavailable: str
    bound: Callable[[Database, FDSet, ConjunctiveQuery], Fraction]
    plane: type
    survival: Callable[..., Fraction] | None = None


def _uo_bound(database: Database, constraints: FDSet, query) -> Fraction:
    """``M_uo``'s bound (Prop 7.3's is too small to size a sample).

    On primary keys the ``rrfreq`` floor ``1/(2|D|)^|Q|`` holds: a block of
    ``m`` facts keeps a given one with probability ``(1 − e_m)/m ≥ 1/(2m)``
    (``e_m ≤ 1/2``: it ends empty).  Beyond them, the local clock bound.
    """
    if constraints.is_primary_keys():
        return rrfreq_lower_bound(database, query)
    degree = conflict_graph(database, constraints).max_degree()
    return uo_keys_local_lower_bound(query.atom_count(), degree)


_MUR = Law(
    "M_ur",
    FDSet.is_primary_keys,
    "M_ur beyond primary keys: no FPRAS for FDs unless RP = NP (Theorem "
    "5.1(3)); keys are open (Prop 5.5 rules out repair counting).",
    lambda db, fds, q: rrfreq_lower_bound(db, q),  # Lemma 5.3
    vectorized_plane.VectorRepairPlane,
    ground_survival_mur,
)
_MUR1 = replace(  # one uniform survivor per conflicting block (Lemma E.3)
    _MUR,
    name="M_ur,1",
    bound=lambda db, fds, q: singleton_frequency_lower_bound(db, q),
    survival=partial(ground_survival_mur, singleton_only=True),
)
_MUS = Law(
    "M_us",
    FDSet.is_primary_keys,
    "M_us beyond primary keys is open; the paper conjectures no FPRAS even "
    "for keys (Section 6).",
    lambda db, fds, q: srfreq_lower_bound(db, q),  # Lemma 6.3
    vectorized_plane.VectorSequencePlane,
    ground_survival_mus,
)

#: One :class:`Law` per :func:`sampling_law` name.  On primary keys
#: ``M_us,1`` has ``M_ur,1``'s law, so its own entry only reports the scope.
LAWS: dict[str, Law] = {
    law.name: law
    for law in (
        _MUR,
        _MUR1,
        _MUS,
        replace(_MUR1, name="M_us,1", unavailable=_MUS.unavailable),
        Law(
            "M_uo",
            FDSet.all_keys,
            "M_uo with non-key FDs: the target probability can be exponentially "
            "small (Prop D.6), so Monte Carlo cannot give an FPRAS; use M_uo,1 "
            "(Theorem 7.5) instead.",
            _uo_bound,
            _WalkPlane,
        ),
        Law(
            "M_uo,1",
            lambda fds: True,  # arbitrary FDs (Theorem 7.5)
            "",
            lambda db, fds, q: uo_singleton_fd_lower_bound(db, q),  # Lemma D.8
            _WalkPlane,
        ),
    )
}


class SamplePool:
    """A lazily materialized, seeded stream of sampled repairs.

    Samples are grown on demand; request ``i`` evaluates against positions
    ``0 .. n_i`` of the *same* stream.  Because every request reads from
    position zero, a pooled estimate consumes exactly the prefix a fresh
    run (seeded like the pool) would draw — which is what makes pooled
    results reproducible.

    Replay requires retention: the pool keeps every drawn sample for its
    lifetime, per-call runs included (each reads a pool of its own).  For
    ``dklr`` requests on near-zero probabilities, pass ``max_samples`` to
    bound the prefix (the plan's ``cap``) — an unbounded stopping-rule run
    would grow the pool without limit.

    **One representation.**  Every sample is a row of a capacity-doubling
    packed ``(S, ceil(n/64))`` little-endian ``uint64`` matrix over the
    plane's :class:`~repro.core.interning.InstanceIndex` (bit ``i`` of a
    row = fact ``i`` survives) — the row the cache store persists, held in
    private process memory.  :meth:`packed_prefix` is the zero-copy view hit
    counting reduces over; :meth:`mask_at` decodes one row to an
    arbitrary-precision bitmask.

    **One contract.**  ``plane`` — any of the :class:`Law` planes — draws
    batch ``b`` of ``batch_size`` samples (the plane's own ``batch_size``
    unless overridden: 512 for a vector plane, 1 for the walk) and names
    the row width (``plane.words``).  ``preloaded_rows`` warm-starts the
    stream with whole batches persisted by a
    :class:`~repro.engine.store.CacheEntry`; new draws continue past them
    by batch index — no RNG state is needed to resume.
    """

    def __init__(self, plane, *, batch_size: int | None = None, preloaded_rows=None):
        batch_size = plane.batch_size if batch_size is None else batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._plane = plane
        self._batch_size = batch_size
        self._words = plane.words
        self._rows = None  # capacity-doubling packed matrix
        self._rows_length = 0  # valid rows in ``_rows``
        if preloaded_rows is not None and preloaded_rows.shape[0]:
            if preloaded_rows.shape[0] % batch_size:
                raise ValueError("a preloaded prefix must be whole batches")
            self._append_rows(preloaded_rows)

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


#: The estimation modes: ``fixed`` runs each request's resolved method,
#: ``adaptive`` its sequential early-stopping estimator.
MODES = ("fixed", "adaptive")
#: The methods a request may name (``auto``: ``fixed`` or ``dklr``).
METHODS = ("auto", "fixed", "dklr")


def check_mode(mode: str) -> None:
    """Reject a mode outside :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (use 'fixed' or 'adaptive')")


@dataclass(frozen=True)
class RequestPlan:
    """One request's run, decided by :meth:`EstimationSession.plan` before any draw.

    ``kind``: ``possibility-zero``, ``fixed`` (one count over ``budget``
    samples), ``dklr``, ``adaptive`` or ``budget`` (:meth:`fixed_budget_pooled`'s
    count); ``mode`` picks the result type.  ``bound`` is the ``p_lower``
    that sized the run: the caller's, else the answer's own.  ``cap`` (≤
    ``max_samples``) is the most samples the run may read: the budget, the
    :class:`~repro.approx.adaptive.SequentialEstimator`'s ``sample_cap``,
    ``max_samples`` for ``dklr`` (``None``: uncapped), 0 for a certified zero.
    """

    kind: str
    mode: str
    epsilon: float
    delta: float
    bound: float | None
    budget: int | None
    cap: int | None


@dataclass(frozen=True)
class _AnswerWitnesses:
    """What one ``(query, answer)``'s minimal witnesses decide, derived once.

    ``masks``: the :meth:`EstimationSession.witnesses` as id bitmasks over
    the session's index; ``possible``: the zero-test verdict (some witness
    is conflict-free, Lemmas 5.4 / E.4); ``packed``: the masks'
    :func:`~repro.sampling.vectorized.pack_witnesses` supports, the hit
    test every pool evaluation reads; ``bound``: the ``p_lower`` sizing
    the answer's budgets (``EstimationSession._witness_bound``), ``None``
    when impossible.
    """

    masks: tuple[int, ...]
    possible: bool
    packed: tuple
    bound: float | None


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
        self.law = sampling_law(generator, constraints)
        self.cache = cache
        self._decomposition: BlockDecomposition | None = None
        self._index: InstanceIndex | None = None
        self._witnesses: dict[
            tuple[ConjunctiveQuery, tuple], tuple[frozenset[Fact], ...]
        ] = {}
        self._answers: dict[tuple[ConjunctiveQuery, tuple], _AnswerWitnesses] = {}
        self._bounds: dict[ConjunctiveQuery, float] = {}
        self._survivals: dict[tuple[int, ...], float] = {}

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

    def ensure_supported(self) -> Law:
        """The session's :class:`Law`; :class:`FPRASUnavailable` outside it."""
        law = LAWS.get(self.law.name)
        if law is not None and law.in_scope(self.constraints):
            return law
        from ..approx.fpras import FPRASUnavailable  # fpras.py imports this module

        raise FPRASUnavailable(
            law.unavailable
            if law is not None
            else f"no FPRAS dispatch for generator {self.generator.name!r}"
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
            )
        if isinstance(self.generator, UniformSequences):
            return SequenceSampler(
                self.database,
                self.constraints,
                singleton,
                rng,
                decomposition=self.decomposition(),
            )
        return UniformOperationsSampler(self.database, self.constraints, singleton, rng)

    def pool(self, rng: random.Random | None = None) -> SamplePool:
        """One shared, lazily grown sample stream seeded from a caller's RNG.

        ``rng`` supplies one ``getrandbits(64)`` draw, the seed of an
        otherwise ordinary :meth:`pool_for_seed` pool — so the pool draws
        on the sampling law's own plane, and per-call estimates (which
        read such a pool) are reproducible per ``random.Random`` seed.
        """
        return self.pool_for_seed(resolve_rng(rng).getrandbits(64))

    @property
    def seeded_plane(self) -> str:
        """The ``label`` of the law's plane: ``"vector"`` (``M_ur``/``M_us``)
        or ``"scalar"`` (the ``M_uo`` walk)."""
        return self.ensure_supported().plane.label

    def plane(self, seed: int | None = None):
        """A fresh plane of the session's sampling law (its :attr:`Law.plane`).

        A :class:`~repro.sampling.vectorized.VectorRepairPlane` /
        :class:`~repro.sampling.vectorized.VectorSequencePlane` for the
        block laws, the :class:`_WalkPlane` for the ``M_uo`` walks, over
        the session's interning and seeded per the plane's contract
        (``seed=None``: one fresh entropy value).  Also the handle the
        decode-parity harness uses: a fresh plane with the same seed
        re-draws any pool batch exactly.
        """
        return self.ensure_supported().plane(self, seed)

    def pool_for_seed(self, seed: int | None) -> SamplePool:
        """A pool for an integer seed, on the sampling law's plane.

        The entry point :func:`~repro.engine.batch.batch_estimate` uses;
        the pool's batch size is its plane's.
        """
        return SamplePool(self.plane(seed))

    def cached_pool(self, seed: int | None) -> SamplePool:
        """A pool warm-started from the session's cache entry (if possible).

        Persisted rows preload the stream and drawing resumes by batch
        index where the cold run stopped, so warm draws continue the cold
        run's stream bit-for-bit.  Without a cache entry or a seed this
        degrades to a plain :meth:`pool_for_seed` (an unseeded stream is
        not reproducible, so persisting it would be meaningless).

        The plane comes from the sampling law alone, never from what the
        entry holds: a prefix drawn with another batch size than the
        plane's (a foreign stream) or ending in a torn batch cannot be
        extended, so it is discarded and redrawn.
        """
        if self.cache is None or seed is None:
            return self.pool_for_seed(seed)
        cache = self.cache
        plane = self.plane(seed)
        batch_size = plane.batch_size
        # The persisted blob IS the pool's matrix: preloaded as decoded.
        rows = cache.sample_word_rows()
        if len(rows) and (cache.sample_batch() != batch_size or len(rows) % batch_size):
            cache.discard_samples()
            rows = None
        pool = SamplePool(plane, preloaded_rows=rows)
        cache.attach_pool(pool)
        return pool

    # -- per-(query, answer) caches --------------------------------------------------

    def positivity_bound(self, query: ConjunctiveQuery) -> float:
        """The law's :attr:`Law.bound` for ``query`` (the paper's floor for
        every answer), rounded down to a float."""
        cached = self._bounds.get(query)
        if cached is None:
            law = self.ensure_supported()
            cached = float_at_most(law.bound(self.database, self.constraints, query))
            self._bounds[query] = cached
        return cached

    def _witness_bound(
        self, query: ConjunctiveQuery, consistent: list[frozenset[Fact]]
    ) -> float:
        """``max(positivity_bound(query), max_w law.survival(w))`` over the
        conflict-free witnesses ``consistent``, each rounded down.

        ``P(answer) ≥ P(w survives)`` for every witness ``w``, so the largest
        survival is a valid Chernoff ``p_lower`` for the answer.  Laws without
        a :attr:`Law.survival` keep the paper's floor.  Survivals depend only
        on the sorted sizes of the conflicting blocks ``w`` hits, so they are
        memoized per session by that multiset.
        """
        bound = self.positivity_bound(query)
        survival = self.ensure_supported().survival
        if survival is None:
            return bound
        decomposition = self.decomposition()
        for witness in consistent:
            blocks = map(decomposition.block_of, witness)
            key = tuple(sorted(len(block) for block in blocks if block.has_conflicts))
            if key not in self._survivals:
                exact = survival(
                    self.database, self.constraints, witness, decomposition=decomposition
                )
                self._survivals[key] = float_at_most(exact)
            bound = max(bound, self._survivals[key])
        return bound

    def witnesses(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[frozenset[Fact], ...]:
        """Inclusion-minimal homomorphism images ``h(Q)`` with ``h(x̄) = c̄``.

        Every sampled repair is a subset of ``D``, so a sample ``S`` entails
        the answer iff ``w ⊆ S`` for some witness ``w`` — evaluated once per
        sample with subset tests instead of a backtracking join.  An empty
        tuple means no homomorphism exists (probability zero everywhere); a
        wrong-arity answer raises :class:`~repro.core.queries.QueryError`.
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

    def _answer(self, query: ConjunctiveQuery, answer: tuple) -> _AnswerWitnesses:
        """The :class:`_AnswerWitnesses` record of ``(query, answer)``, built once."""
        key = (query, answer)
        record = self._answers.get(key)
        if record is None:
            witnesses = self.witnesses(query, answer)
            masks = tuple(map(self.index().mask_of, witnesses))
            consistent = [
                w for w in witnesses if image_is_consistent(w, self.constraints)
            ]
            record = _AnswerWitnesses(
                masks,
                bool(consistent),
                vectorized_plane.pack_witnesses(masks),
                self._witness_bound(query, consistent) if consistent else None,
            )
            self._answers[key] = record
        return record

    def witness_masks(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[int, ...]:
        """The :meth:`witnesses` images as id bitmasks over :meth:`index`.

        A sample mask ``s`` entails the answer iff ``w & s == w`` for some
        witness mask ``w``.
        """
        return self._answer(query, answer).masks

    def is_possible(self, query: ConjunctiveQuery, answer: tuple = ()) -> bool:
        """The polynomial zero-test (see :mod:`repro.exact.possibility`).

        ``P > 0`` under every uniform generator iff some witness image is
        conflict-free; pairwise consistency is closed under subsets, so
        checking the inclusion-minimal witnesses is equivalent.
        """
        return self._answer(query, answer).possible

    # -- request plans -----------------------------------------------------------------

    def plan(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        mode: str = "fixed",
        max_samples: int | None = None,
        p_lower: float | None = None,
    ) -> RequestPlan:
        """How one request runs, decided before any draw (this draws nothing).

        In order: :meth:`ensure_supported`; the zero-test, so an impossible
        answer is certified whatever its parameters; one check of
        ``method`` (in both modes, though adaptive runs ignore it), ε, δ,
        ``max_samples`` and ``p_lower`` (overriding the answer's own bound:
        the larger of :meth:`positivity_bound` and its likeliest
        conflict-free witness's exact survival); the kind.  ``auto`` runs
        ``fixed`` when the budget is at most both
        :data:`~repro.approx.fpras.AUTO_FIXED_BUDGET` and ``max_samples``,
        and a ``fixed`` budget over ``max_samples`` is a ``ValueError``.
        """
        from ..approx.fpras import AUTO_FIXED_BUDGET  # fpras.py imports this module

        check_mode(mode)
        self.ensure_supported()
        if not self.is_possible(query, answer):
            return RequestPlan("possibility-zero", mode, epsilon, delta, None, None, 0)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive")
        if p_lower is not None and not 0 < p_lower <= 1:
            raise ValueError("p_lower must lie in (0, 1]")
        bound = p_lower if p_lower is not None else self._answer(query, answer).bound
        if mode == "adaptive":
            cap = SequentialEstimator(
                epsilon, delta, p_lower=bound, max_samples=max_samples
            ).sample_cap
            return RequestPlan("adaptive", mode, epsilon, delta, bound, None, cap)
        if method != "dklr":
            budget = chernoff_sample_size(epsilon, delta, bound)
            over = max_samples is not None and budget > max_samples
            if method == "fixed" and over:
                raise ValueError(f"the fixed budget {budget} exceeds {max_samples=}")
            if method == "fixed" or (not over and budget <= AUTO_FIXED_BUDGET):
                return RequestPlan("fixed", mode, epsilon, delta, bound, budget, budget)
        return RequestPlan("dklr", mode, epsilon, delta, bound, None, max_samples)

    def _run(
        self,
        plan: RequestPlan,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple,
    ) -> EstimateResult | AdaptiveResult:
        """Execute ``plan`` over ``pool``, reading it from position zero."""
        if plan.kind == "possibility-zero":
            # No conflict-free image of the query exists, so the probability
            # is exactly 0 under every generator: certified without a sample.
            zero = EstimateResult(
                0.0, 0, plan.epsilon, plan.delta, plan.kind, certified_zero=True
            )
            if plan.mode == "fixed":
                return zero
            point = ConfidenceInterval(0.0, 0.0, 1.0, plan.kind)
            return AdaptiveResult(**vars(zero), interval=point)
        evaluator = _PoolEvaluator(self, pool, query, answer)
        if plan.budget is not None:  # ``fixed``/``budget``: one packed-prefix pass
            hits, n = evaluator.count(plan.budget), plan.budget
            if plan.kind == "budget":  # no bound sized ``n``: it certifies nothing
                return EstimateResult(
                    hits / n, n, plan.epsilon, plan.delta, "fixed-budget"
                )
            return fixed_estimate_from_total(hits, n, plan.epsilon, plan.delta)
        draws = (1.0 if evaluator.flag(position) else 0.0 for position in count())
        if plan.kind == "dklr":
            return stopping_rule_estimate(
                draws.__next__, plan.epsilon, plan.delta, max_samples=plan.cap
            )
        return adaptive_estimate(
            draws.__next__, plan.epsilon, plan.delta, plan.bound, plan.cap
        )

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

        :meth:`estimate_pooled` over a fresh :meth:`pool` seeded from
        ``rng``; the result equals the per-call API's under the same seed,
        the caches only make it cheaper.
        """
        return self.estimate_pooled(
            self.pool(rng),
            query,
            answer,
            epsilon=epsilon,
            delta=delta,
            method=method,
            p_lower=p_lower,
            max_samples=max_samples,
        )

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
        mode: str = "fixed",
    ) -> EstimateResult | AdaptiveResult:
        """Like :meth:`estimate`, but drawing from a shared :class:`SamplePool`.

        :meth:`plan`, then the one executor over ``pool``.  Each request
        reads the pool from position zero, so ``N`` pooled requests share
        one sampling pass instead of performing ``N``.  For a pool built
        from a caller's ``random.Random`` (:meth:`pool`) the result equals
        ``estimate(..., rng=random.Random(seed))`` under the same seed.
        ``mode="adaptive"`` is :meth:`estimate_adaptive` over ``pool``.
        """
        plan = self.plan(
            query,
            answer,
            epsilon=epsilon,
            delta=delta,
            method=method,
            mode=mode,
            max_samples=max_samples,
            p_lower=p_lower,
        )
        return self._run(plan, pool, query, answer)

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
        return self.estimate_pooled(
            self.pool(rng) if pool is None else pool,
            query,
            answer,
            epsilon=epsilon,
            delta=delta,
            max_samples=max_samples,
            mode="adaptive",
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
        return self.fixed_budget_pooled(
            self.pool(rng), query, answer, samples=samples
        )

    def fixed_budget_pooled(
        self,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        samples: int = 10_000,
    ) -> EstimateResult:
        """Fixed-budget estimate over a shared pool's first ``samples`` draws.

        No zero-test: a ``budget`` plan, ε and δ NaN, run through
        :meth:`_run`'s fixed count.
        """
        if samples < 1:
            raise ValueError("samples must be positive")
        self.ensure_supported()
        nan = float("nan")
        plan = RequestPlan("budget", "fixed", nan, nan, None, samples, samples)
        return self._run(plan, pool, query, answer)


class _PoolEvaluator:
    """Hit evaluation of one ``(query, answer)`` against one pool's prefix.

    Hits are computed with per-word column tests
    (:func:`repro.sampling.vectorized.batch_hit_flags`) over only the
    words the witnesses occupy in the pool's rows — the answer record's
    ``packed`` supports, packed once per session — and cached:
    :meth:`count` folds a known-length prefix in one pass, and
    :meth:`flag` serves positions out of the evaluated prefix.  Growth
    follows the pool's batch size — a vector pool grows a batch at a
    time, a walk-plane pool exactly to the position asked for.  Rows the
    pool already holds are evaluated ahead
    geometrically, so a warm prefix costs one pass per doubling, not one
    per position.
    """

    __slots__ = ("_pool", "_packed", "_flags", "_evaluated")

    def __init__(
        self,
        session: EstimationSession,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple,
    ):
        self._pool = pool
        self._packed = session._answer(query, answer).packed
        self._flags = vectorized_plane.np.zeros(0, dtype=bool)
        self._evaluated = 0

    def _ensure_flags(self, length: int) -> None:
        if self._evaluated >= length:
            return
        rows = self._pool.packed_prefix(length)
        fresh = vectorized_plane.batch_hit_flags(rows[self._evaluated :], self._packed)
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
