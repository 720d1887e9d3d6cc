"""Workload planning: group estimation requests and share sample pools.

:func:`batch_estimate` takes a mixed workload of ``P_{M_Σ,Q}(D, c̄)``
requests — possibly over several databases, constraint sets and generators —
groups them by ``(database, constraints, law)`` — the generator's
:func:`~repro.engine.session.sampling_law` — runs one
:class:`~repro.engine.session.EstimationSession` with a shared
:class:`~repro.engine.session.SamplePool` per group, and optionally fans the
groups out over a ``multiprocessing`` worker pool.

Seeding is per group and *content-derived*: :func:`group_seed_for` hashes
``(database, Σ, law, workload seed)`` through
:func:`~repro.engine.store.instance_cache_key`, so a group's seed — and
hence its sample stream and estimates — is independent of the worker
count, of how requests interleave across groups, and of which *other*
groups share the run.  The long-running service plane
(:mod:`repro.service`) relies on exactly this: a request served from a
warm session is bit-identical to the same request inside any offline
``batch_estimate(seed=...)`` run, no matter the arrival order.  A request
outside the paper's FPRAS scope is reported as :attr:`BatchResult.error`
instead of aborting the rest of the batch (the per-call API keeps
raising, as before).

Two orthogonal switches extend the planner:

* ``mode="adaptive"`` — run each request as a sequential early-stopping
  estimator (:mod:`repro.approx.adaptive`) over the group's shared pool
  (its length is the slowest stopping time, not the sum); per-request
  ``method`` is still checked in this mode, but not used.
* ``cache_dir=...`` — persist each group's pool sample prefix (and
  nothing else) per ``(database, Σ, law, seed)`` key in a
  :class:`~repro.engine.store.CacheStore`, so reruns of the same workload
  warm-start (requires a workload ``seed``; unseeded runs are not
  reproducible and bypass the cache).  A group that draws nothing past
  its stored prefix writes nothing.

The sample plane follows the group's sampling law — its
:data:`~repro.engine.session.LAWS` entry names one plane class, and the
group's pool takes its batch size from that plane: vector laws draw whole
``uint64``-packed batches of 512, the ``M_uo`` walk one sample per batch
(``_WalkPlane``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..approx.adaptive import AdaptiveResult
from ..approx.montecarlo import EstimateResult
from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery
from .session import MODES, EstimationSession, SamplePool, check_mode, sampling_law
from .store import STORE_ERRORS, CacheStore, StoreErrorLog, instance_cache_key

#: Environment override for the multiprocessing start method used by
#: ``batch_estimate(workers=...)`` and the sharded service (``fork`` /
#: ``spawn`` / ``forkserver``).
START_METHOD_ENV = "REPRO_UOCQA_START_METHOD"


@dataclass(frozen=True)
class BatchRequest:
    """One estimation request of a batch workload.

    ``label`` is carried through untouched (the CLI uses it for the instance
    name); it does not participate in grouping.
    """

    database: Database
    constraints: FDSet
    generator: MarkovChainGenerator
    query: ConjunctiveQuery
    answer: tuple = ()
    epsilon: float = 0.2
    delta: float = 0.05
    method: str = "auto"
    max_samples: int | None = None
    label: str = ""

    def group_key(self) -> tuple[Database, FDSet, MarkovChainGenerator]:
        """Requests with equal keys share a session and a sample pool;
        the key names the :func:`~repro.engine.session.sampling_law`."""
        law = sampling_law(self.generator, self.constraints)
        return (self.database, self.constraints, law)


@dataclass(frozen=True)
class BatchResult:
    """The outcome of one request: an estimate, or a scope/usage error.

    ``result`` is an :class:`EstimateResult` in fixed mode and an
    :class:`~repro.approx.adaptive.AdaptiveResult` (which additionally
    carries the stopping confidence interval) in adaptive mode.
    """

    request: BatchRequest
    result: EstimateResult | AdaptiveResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def batch_estimate(
    requests: Iterable[BatchRequest],
    *,
    seed: int | None = None,
    workers: int | None = None,
    mode: str = "fixed",
    cache_dir: str | None = None,
) -> list[BatchResult]:
    """Estimate every request, sharing one sample pool per instance group.

    Results come back in input order.  With ``workers`` > 1 and more than
    one group, groups run in separate processes; estimates are identical to
    the serial run because each group owns a deterministic derived seed
    (``seed`` of ``None`` means fresh entropy per group, useful only when
    reproducibility does not matter).

    ``mode`` is one of :data:`MODES`: ``"adaptive"`` switches every
    request to its early-stopping estimator; ``cache_dir`` persists
    per-group state across processes and runs (see the module docstring).

    Each group's sampling law picks its sample plane (its
    :data:`~repro.engine.session.LAWS` entry), never what ``cache_dir``
    holds.

    The ``REPRO_UOCQA_START_METHOD`` environment variable pins the
    ``multiprocessing`` start method for the worker fan-out (``"fork"`` /
    ``"spawn"`` / ``"forkserver"``).  Left unset, ``fork`` is used only
    when the calling process is single-threaded — forking a process with
    live threads can deadlock the children (and is deprecated on Python
    3.12+) — and ``spawn`` otherwise.  Estimates never depend on the start
    method.
    """
    check_mode(mode)
    # Resolved eagerly (not only when the fan-out runs) so a start-method
    # typo fails the same way with one group as with many.
    context = _pool_context()
    requests = list(requests)
    groups = group_positions(requests)
    payloads = []
    for group, positions in groups.items():
        members = [requests[p] for p in positions]
        payloads.append((group, members, group_seed_for(seed, *group), mode, cache_dir))
    if workers and workers > 1 and len(payloads) > 1:
        with context.Pool(min(workers, len(payloads))) as pool:
            outcomes = pool.map(_estimate_group, payloads)
    else:
        outcomes = [_estimate_group(payload) for payload in payloads]
    # Store failures are counted where the caller can see them, whichever
    # process ran the group.
    for _, records in outcomes:
        for op, kind in records:
            STORE_ERRORS.record(op, kind)
    return in_request_order(groups, (rows for rows, _ in outcomes), len(requests))


def group_positions(requests: Sequence[BatchRequest]) -> dict[tuple, list[int]]:
    """``{group key: [request positions]}``, groups in first-seen order.

    The one place requests are grouped: every entry point (this planner,
    the registry, the server) splits a request list here, runs each
    group, and puts the rows back with :func:`in_request_order`.
    """
    groups: dict[tuple, list[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault(request.group_key(), []).append(position)
    return groups


def in_request_order(
    groups: dict[tuple, list[int]],
    chunks: Iterable[list[BatchResult]],
    count: int,
) -> list[BatchResult]:
    """Per-group row lists (in ``groups`` order) back in request order."""
    rows: list[BatchResult | None] = [None] * count
    for positions, chunk in zip(groups.values(), chunks):
        for position, row in zip(positions, chunk):
            rows[position] = row
    return rows  # type: ignore[return-value]  # groups cover every position


def error_rows(
    requests: Iterable[BatchRequest], error: BaseException
) -> list[BatchResult]:
    """The rows of a group that cannot be served: one error row each."""
    return [BatchResult(request, error=str(error)) for request in requests]


def group_seed_for(
    seed: int | None,
    database: Database,
    constraints: FDSet,
    generator: MarkovChainGenerator,
) -> int | None:
    """The derived seed for one ``(database, Σ, law)`` group.

    ``generator`` is the group's law (the third item of
    :meth:`BatchRequest.group_key`).  A pure function of the group
    *content* and the workload seed (the first 64 bits of
    :func:`~repro.engine.store.instance_cache_key`), so
    two runs — or a run and a long-lived service — that score the same
    group under the same workload seed draw the same stream even when the
    surrounding workloads differ.  ``None`` stays ``None`` (fresh entropy).
    """
    if seed is None:
        return None
    return int(instance_cache_key(database, constraints, generator.name, seed)[:16], 16)


def _pool_context():
    """The multiprocessing context for the worker fan-out.

    The ``REPRO_UOCQA_START_METHOD`` environment variable when set, else a
    safe default — ``fork`` (cheap, no import re-execution) only while the
    calling process is single-threaded, ``spawn`` otherwise.  A forked
    child inherits a snapshot of the parent's locks; with live threads
    (exactly the service case) a lock captured mid-acquire deadlocks the
    child, and CPython 3.12+ warns about the combination.
    """
    method = os.environ.get(START_METHOD_ENV) or None
    if method is not None:
        if method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unknown start method {method!r}; this platform supports "
                f"{multiprocessing.get_all_start_methods()}"
            )
        return multiprocessing.get_context(method)
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _estimate_group(
    payload: tuple,
) -> tuple[list[BatchResult], list[tuple[str, str]]]:
    """Run one group's requests against a shared session + pool (picklable).

    ``payload`` is ``(group key, requests, group seed, mode, cache_dir)``.
    Returns the rows and the group's absorbed store failures as
    ``(op, kind)`` records, which the caller counts in its own
    :data:`~repro.engine.store.STORE_ERRORS` — a worker process's copy of
    that log is invisible to the caller.
    """
    from ..approx.fpras import FPRASUnavailable

    (database, constraints, law), requests, group_seed, mode, cache_dir = payload
    records: list[tuple[str, str]] = []
    log = StoreErrorLog()
    log.listener = lambda op, kind: records.append((op, kind))
    store = CacheStore(cache_dir) if cache_dir is not None else None
    try:
        session, pool = open_group(database, constraints, law, group_seed, store, log)
    except (FPRASUnavailable, ValueError) as error:
        return error_rows(requests, error), records
    rows = run_group(session, pool, requests, mode)
    if session.cache is not None:
        try:
            session.cache.save()
        except OSError as error:
            # The cache is an accelerator, never an authority: an
            # unwritable cache_dir must not discard computed results.
            # Absorbed, but *accounted* (and narrowly: anything else is a
            # store bug and propagates).
            log.record("save", error)
    return rows, records


def open_group(
    database: Database,
    constraints: FDSet,
    law: MarkovChainGenerator,
    seed: int | None,
    store: CacheStore | None,
    log: StoreErrorLog,
) -> tuple[EstimationSession, SamplePool]:
    """Open one ``(database, Σ, law)`` group: its session and shared pool.

    With a ``store`` and a ``seed`` the session binds the group's store
    entry and the pool warm-starts from it; load failures are accounted in
    ``log`` (the registry's own, or offline the group's own, which
    :func:`batch_estimate` folds into
    :data:`~repro.engine.store.STORE_ERRORS`) and the group is served
    compute-without-cache — a broken
    disk never turns into an error row.  A *damaged* entry stays attached:
    it warm-starts empty and becomes the save target once the group
    recomputes.  Raises
    :class:`~repro.approx.fpras.FPRASUnavailable` for a group outside the
    paper's positive results.
    """
    cache = None
    if store is not None and seed is not None:
        try:
            cache = store.entry(database, constraints, law.name, seed)
        except OSError as error:
            log.record("load", error)
        else:
            if cache.load_error is not None:
                log.record("load", cache.load_error)
            else:
                log.mark_ok()
    session = EstimationSession(database, constraints, law, cache=cache)
    return session, session.cached_pool(seed)


def run_group(
    session: EstimationSession,
    pool: SamplePool,
    requests: Sequence[BatchRequest],
    mode: str = "fixed",
) -> list[BatchResult]:
    """Execute one group's requests against a warm session + shared pool.

    The single per-group execution path: both the offline planner above
    and the long-running service plane (:mod:`repro.service`) route every
    request through here, so a served estimate can never drift from its
    ``batch_estimate`` twin.  Each request makes one plan-and-run call
    over the shared pool, :meth:`~EstimationSession.estimate_pooled` with
    the group's ``mode`` (its :meth:`~EstimationSession.plan` checks the
    request's parameters before any draw), and a request outside the
    paper's scope or with bad parameters gets its own error row.  Rows
    come back in request order.  Because every request reads the pool
    from position zero and sample ``i`` is a pure function of
    ``(seed, i)``, results — and the pool's final length, the longest
    prefix any request reads rounded up to the pool's batch — are
    independent of request order and of how a group's requests are
    partitioned across calls; the micro-batching server coalesces
    concurrent requests through this exact property.
    """
    from ..approx.fpras import FPRASUnavailable

    check_mode(mode)
    rows: list[BatchResult] = []
    for request in requests:
        try:
            result = session.estimate_pooled(
                pool,
                request.query,
                request.answer,
                epsilon=request.epsilon,
                delta=request.delta,
                method=request.method,
                max_samples=request.max_samples,
                mode=mode,
            )
        except (FPRASUnavailable, ValueError) as error:
            rows.append(BatchResult(request, error=str(error)))
        else:
            rows.append(BatchResult(request, result=result))
    return rows
