"""Warm session registry: LRU-cached estimation sessions with locks.

A long-lived process answering many ``P_{M_Σ,Q}(D, c̄)`` requests should
pay each group's setup — block decomposition, fact interning, witness
enumeration, sample drawing — once, not per request.
:class:`SessionRegistry` keeps one warm
:class:`~repro.engine.session.EstimationSession` (plus its shared
:class:`~repro.engine.session.SamplePool`) per
``(database, Σ, law)`` group (the generator's
:func:`~repro.engine.session.sampling_law`), keyed by the same content
hash the on-disk cache uses (:func:`~repro.engine.store.instance_cache_key`
over the group's derived seed), and evicts least-recently-used groups
beyond ``max_sessions``.

**Determinism.**  Group seeds come from
:func:`~repro.engine.batch.group_seed_for` — a pure function of the
group content and the registry's workload seed — and every request
evaluates the group pool from position zero, so a registry-served
estimate is bit-identical to the same request inside any offline
:func:`~repro.engine.batch.batch_estimate` run with the same seed, no
matter when it arrives or what it is batched with.

**Locking model.**  Sessions mutate shared state (witness caches, the
sample pool, the cache entry) and are *not* thread-safe, so every batch
executes under its handle's ``threading.Lock`` (:meth:`SessionHandle.run`).
The registry's own lock guards only the LRU map — admissions build their
session outside it, so a slow cold admission never blocks requests for
warm groups.  The micro-batching server keeps at most one in-flight
batch per group, leaving the per-session lock uncontended there; the
lock is what makes the registry safe for *direct* multi-threaded use
too.

**Persistence.**  With a ``cache_dir``, admissions warm-start from the
:class:`~repro.engine.store.CacheStore` (the persisted sample
prefix) and evictions spill newly drawn
state back — so a group bouncing in and out of a small registry never
redraws samples it already paid for.  Spills merge with concurrent
writers instead of clobbering them (see :meth:`CacheEntry.save
<repro.engine.store.CacheEntry.save>`).

**Degraded mode.**  The store is an accelerator, never an authority:
any warm-start or spill failure (ENOSPC, read-only filesystem, a
corrupt entry) is recorded in the registry's
:class:`~repro.engine.store.StoreErrorLog` and the group is served
compute-without-cache instead of erroring.  ``stats()["degraded"]``
stays raised until the next store operation succeeds, and the server
exports the log as ``repro_store_errors_total{op,kind}`` and
``repro_degraded_mode``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..engine.batch import (
    BatchRequest,
    BatchResult,
    error_rows,
    group_positions,
    group_seed_for,
    in_request_order,
    open_group,
    run_group,
)
from ..engine.session import EstimationSession, sampling_law
from ..engine.store import CacheStore, StoreErrorLog, instance_cache_key
from .cache import Memo

#: Default LRU capacity of a registry (warm groups kept in memory).
DEFAULT_MAX_SESSIONS = 32


class SessionHandle:
    """One warm group: session + shared pool + lock + serving counters.

    Obtained from :meth:`SessionRegistry.handle`; holders may keep using
    a handle after the registry evicts it (eviction only drops the
    registry's reference and spills the cache entry — in-flight batches
    complete normally).
    """

    def __init__(
        self,
        key: str,
        session: EstimationSession,
        pool,
        seed: int | None,
        storage: StoreErrorLog | None = None,
    ):
        self.key = key
        self.session = session
        self.pool = pool
        self.seed = seed
        #: Where spill failures are accounted (the owning registry's log).
        self.storage = storage
        #: Serializes all session/pool mutation — hold it for any direct
        #: use of :attr:`session` or :attr:`pool` outside :meth:`run`.
        self.lock = threading.Lock()
        self.requests_served = 0
        self.batches_run = 0
        self.error_rows = 0

    def run(
        self, requests: Sequence[BatchRequest], mode: str = "fixed"
    ) -> list[BatchResult]:
        """Score ``requests`` against the warm session, in request order.

        One :func:`~repro.engine.batch.run_group` pass under the session
        lock: the micro-batcher hands whole coalesced batches through
        here, and because every request reads the pool from position
        zero, results are independent of how requests are split across
        calls.
        """
        with self.lock:
            results = run_group(self.session, self.pool, requests, mode)
            self.batches_run += 1
            self.requests_served += len(results)
            self.error_rows += sum(1 for row in results if not row.ok)
        return results

    def spill(self) -> None:
        """Persist the session's cache entry, best-effort (the cache is
        an accelerator — an unwritable directory must never take the
        service down).  Failures are absorbed but *accounted* in
        :attr:`storage`; anything outside the expected disk failure
        modes is a store bug and propagates.
        """
        cache = self.session.cache
        if cache is None:
            return
        with self.lock:
            try:
                committed = cache.save()
            except OSError as error:
                if self.storage is not None:
                    self.storage.record("spill", error)
            else:
                # A no-op save (nothing dirty) never touched the disk —
                # it is not evidence the store recovered, so only a real
                # commit clears degraded mode.
                if committed and self.storage is not None:
                    self.storage.mark_ok()

    def stats(self) -> dict:
        """Serving counters for this group, JSON-native."""
        return {
            "key": self.key,
            "generator": self.session.generator.name,  # the group's law
            "facts": len(self.session.database),
            "backend": self.pool.plane.label,
            "pool_samples": len(self.pool),
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "error_rows": self.error_rows,
        }


class SessionRegistry:
    """An LRU of warm estimation sessions, one per instance group.

    ``seed`` is the workload-level seed every group seed derives from
    (``None`` = fresh entropy per group — estimates are then not
    reproducible and the cache store is bypassed, mirroring
    ``batch_estimate``).  ``cache_dir`` attaches a persistent
    :class:`~repro.engine.store.CacheStore` for warm-start/spill.
    """

    def __init__(
        self,
        *,
        seed: int | None = None,
        cache_dir: str | None = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        self.seed = seed
        self.max_sessions = max_sessions
        #: Per-registry store-failure accounting; drives degraded mode.
        self.storage = StoreErrorLog()
        self.store = CacheStore(cache_dir) if cache_dir is not None else None
        self._handles: OrderedDict[str, SessionHandle] = OrderedDict()
        self._lock = threading.Lock()
        # (database, constraints, generator) -> (group seed, registry key,
        # law).  Deriving them hashes the whole instance (canonical JSON +
        # SHA-256, twice); memoizing makes the warm hot path — including
        # the micro-batcher's key lookups on the event loop — a dict hit.
        # Bounded well above the LRU so eviction churn stays cheap.
        self._keys = Memo(4 * max_sessions)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _derived(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
    ) -> tuple[int | None, str, MarkovChainGenerator]:
        group = (database, constraints, generator)
        derived = self._keys.get(group)
        if derived is None:
            law = sampling_law(generator, constraints)
            seed = group_seed_for(self.seed, database, constraints, law)
            derived = (seed, instance_cache_key(database, constraints, law.name, seed), law)
            self._keys.put(group, derived)
        return derived

    def group_seed(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
    ) -> int | None:
        """This group's derived seed (identical to ``batch_estimate``'s)."""
        return self._derived(database, constraints, generator)[0]

    def key_for(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
    ) -> str:
        """The registry key of the generator's law — also its on-disk
        cache entry key and shard route."""
        return self._derived(database, constraints, generator)[1]

    def handle(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
    ) -> SessionHandle:
        """The warm handle for this group, admitting (and possibly
        evicting) as needed.

        The handle is the law's: on primary keys ``M_us,1`` and ``M_uo,1``
        get the ``M_ur,1`` handle, whose session binds ``M_ur,1``.

        Raises :class:`~repro.approx.fpras.FPRASUnavailable` when the
        group is outside the paper's positive results — unsupported groups are
        never admitted, so they cannot flush warm sessions out of the
        LRU.
        """
        seed, key, law = self._derived(database, constraints, generator)
        with self._lock:
            cached = self._handles.get(key)
            if cached is not None:
                self._handles.move_to_end(key)
                self.hits += 1
                return cached
        # Built outside the registry lock; raises FPRASUnavailable for
        # out-of-scope groups before admission.
        session, pool = open_group(
            database, constraints, law, seed, self.store, self.storage
        )
        handle = SessionHandle(key, session, pool, seed, storage=self.storage)
        evicted: list[SessionHandle] = []
        with self._lock:
            raced = self._handles.get(key)
            if raced is not None:
                # Two threads built the same cold group concurrently; the
                # first insert wins so every caller shares one stream.
                self._handles.move_to_end(key)
                self.hits += 1
                return raced
            self.misses += 1
            self._handles[key] = handle
            while len(self._handles) > self.max_sessions:
                _, old = self._handles.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
        for old in evicted:
            old.spill()
        return handle

    def estimate(
        self, requests: Sequence[BatchRequest], mode: str = "fixed"
    ) -> list[BatchResult]:
        """The warm, in-process twin of
        :func:`~repro.engine.batch.batch_estimate`.

        Groups ``requests``, serves each group from its (possibly
        freshly admitted) warm handle, and reports out-of-scope groups
        as per-request :attr:`~repro.engine.batch.BatchResult.error`
        rows — identical results to ``batch_estimate(requests,
        seed=registry.seed, mode=mode)``, minus the cold start.
        """
        from ..approx.fpras import FPRASUnavailable

        requests = list(requests)
        groups = group_positions(requests)
        chunks = []
        for group, positions in groups.items():
            members = [requests[p] for p in positions]
            try:
                handle = self.handle(*group)
            except (FPRASUnavailable, ValueError) as error:
                chunks.append(error_rows(members, error))
            else:
                chunks.append(handle.run(members, mode))
        return in_request_order(groups, chunks, len(requests))

    def handles(self) -> list[SessionHandle]:
        """A stable snapshot of the warm handles, LRU-oldest first."""
        with self._lock:
            return list(self._handles.values())

    def spill_all(self) -> int:
        """Spill every warm session's cache entry, keeping them warm.

        Returns the number of handles spilled.  Exercises the store
        immediately, so the fault-injection plane (``POST /_fault``) can
        observe injected disk faults — and recovery from them — without
        waiting for organic eviction traffic.
        """
        handles = self.handles()
        for handle in handles:
            handle.spill()
        return len(handles)

    def drop_sessions(self) -> int:
        """Drop every warm session *without* spilling.

        Returns the number of handles dropped.  The next request per
        group re-admits from disk — the fault-injection plane uses this
        to force warm-start reads under an injected read fault.
        """
        with self._lock:
            dropped = len(self._handles)
            self._handles.clear()
        return dropped

    def stats(self) -> dict:
        """Registry-level counters plus per-session rows, JSON-native."""
        handles = self.handles()
        storage = self.storage.snapshot()
        return {
            "sessions": len(handles),
            "max_sessions": self.max_sessions,
            "seed": self.seed,
            "cache_dir": None if self.store is None else self.store.directory,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "store_errors": storage["total"],
            "degraded": storage["degraded"],
            "storage": storage,
            "groups": [handle.stats() for handle in handles],
        }

    def close(self) -> None:
        """Spill every warm session's cache entry and empty the registry."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.spill()
