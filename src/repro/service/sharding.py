"""Sharded service plane: one warm registry per core behind a router.

The single-process server tops out at roughly one core: micro-batching
amortizes Python overhead but every batch still executes under the GIL.
PR 5's content-derived group seeds (:func:`~repro.engine.batch.group_seed_for`
over :func:`~repro.engine.store.instance_cache_key`) make *placement
irrelevant to results* — any process that evaluates a group produces the
same seeded sample stream — so scale-out reduces to routing.

This module supplies the pieces:

* :func:`shard_for_key` — rendezvous (highest-random-weight) hashing of
  a registry key to a shard.  Rendezvous hashing gives the stability
  property the tests pin down: growing ``n → n + 1`` workers remaps only
  the keys that land on the *new* shard, and removing a shard remaps
  only that shard's keys — every other placement is untouched, so warm
  sessions survive resizes.
* :class:`LocalShard` — one shard served in the calling process: a
  :class:`~repro.service.registry.SessionRegistry` +
  :class:`~repro.service.batching.MicroBatcher` behind the same
  ``submit`` / ``stats`` / ``drain`` / ``stop`` calls as
  :class:`WorkerPool`.  The in-process server talks to one directly;
  every worker process runs one behind its frame loop.
* :class:`WorkerConfig` — the picklable recipe for one worker's
  local shard.
* :class:`WorkerPool` — the router half: spawns one warm worker process
  per shard, speaks a length-prefixed frame protocol over duplex pipes,
  respawns dead workers (re-warming their keys from the shared cache
  store and transparently retrying in-flight frames), and collects
  per-shard stats.
* :func:`aggregate_shard_stats` — the pure sum/max fold the server uses
  for ``GET /stats`` totals (unit-tested: sum over shards == totals).

**Protocol.**  Frames are pickled ``(request_id, kind, payload)`` tuples
over ``multiprocessing.Pipe`` connections — ``send_bytes`` writes a
length-prefixed packet, so framing is inherent.  Router→worker kinds:
``estimate`` (one instance group per frame), ``warm`` (admit a group
without scoring), ``stats``, ``shutdown``.  Worker→router statuses:
``result``, ``queue_full`` (re-raised as
:class:`~repro.service.batching.QueueFull` router-side so 429/Retry-After
semantics are shard-transparent), ``error``, ``stats``, ``ok``.

**Start method.**  Workers always spawn (the server process runs
threads; forking a threaded process can deadlock — the same policy as
``engine/batch.py``) unless ``REPRO_UOCQA_START_METHOD`` explicitly
overrides.

**Crash transparency.**  Estimates are deterministic and idempotent
(every request reads its group pool from position zero), so the router
may retry a dead worker's in-flight frames on the respawned process
without changing any result — a mid-storm ``SIGKILL`` is invisible in
served rows, which is what the kill/respawn bit-identity tests assert.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .batching import MicroBatcher, QueueFull
from .cache import Memo
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry

__all__ = [
    "LocalShard",
    "WorkerConfig",
    "WorkerPool",
    "aggregate_shard_stats",
    "shard_for_key",
]

#: Registry stat keys summed across shards by :func:`aggregate_shard_stats`.
_REGISTRY_SUM_KEYS = ("sessions", "hits", "misses", "evictions", "store_errors")
#: Batcher stat keys summed across shards.
_BATCHING_SUM_KEYS = (
    "batches_run",
    "coalesced_batches",
    "pending_requests",
    "rejected",
    "cancelled_waiters",
)
#: Batcher stat keys folded with ``max`` (a width or a duration is not additive).
_BATCHING_MAX_KEYS = ("widest_batch", "batch_seconds_ewma")

#: In-flight frames are retried at most this many times across respawns
#: before failing the caller (a worker that dies twice on the same frame
#: is likely being killed *by* it).
_MAX_RETRIES = 2

#: Recently routed groups remembered for re-warming a respawned shard.
_WARM_KEYS = 256


def shard_for_key(key: str, shards: int) -> int:
    """Rendezvous-hash a registry key to a shard in ``range(shards)``.

    Each ``(key, shard)`` pair gets an independent SHA-256 weight and
    the key goes to the argmax — the classic highest-random-weight
    scheme.  Placement is a pure function of the key and the shard
    *count*, and resizing moves only the minimal set of keys (see the
    module docstring); both properties are pinned by hypothesis tests.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards == 1:
        return 0
    encoded = key.encode("utf-8")
    best_shard = 0
    best_weight = b""
    for shard in range(shards):
        weight = hashlib.sha256(encoded + b"|" + str(shard).encode()).digest()
        if weight > best_weight:
            best_weight = weight
            best_shard = shard
    return best_shard


def aggregate_shard_stats(per_shard: Iterable[Mapping | None]) -> dict:
    """Fold per-shard stat documents into registry/batching totals.

    Counters are summed, ``widest_batch`` is folded with ``max``, and
    shards that failed to report (``None`` entries, or entries without a
    ``registry`` section — e.g. mid-respawn) are skipped but counted in
    ``"unreported"``.  Pure and synchronous so the aggregation contract
    (sum over shards == totals) is unit-testable without processes.
    """
    registry_totals = {key: 0 for key in _REGISTRY_SUM_KEYS}
    batching_totals = {key: 0 for key in _BATCHING_SUM_KEYS}
    for key in _BATCHING_MAX_KEYS:
        batching_totals[key] = 0
    reported = 0
    unreported = 0
    for entry in per_shard:
        if not entry or not entry.get("registry"):
            unreported += 1
            continue
        reported += 1
        registry = entry["registry"]
        batching = entry.get("batching") or {}
        for key in _REGISTRY_SUM_KEYS:
            registry_totals[key] += registry.get(key, 0)
        for key in _BATCHING_SUM_KEYS:
            batching_totals[key] += batching.get(key, 0)
        for key in _BATCHING_MAX_KEYS:
            batching_totals[key] = max(batching_totals[key], batching.get(key, 0))
    return {
        "shards": reported,
        "unreported": unreported,
        "registry": registry_totals,
        "batching": batching_totals,
    }


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its registry + batcher.

    Plain picklable fields only — the config crosses the spawn boundary.
    """

    seed: int | None = None
    cache_dir: str | None = None
    max_sessions: int = DEFAULT_MAX_SESSIONS
    max_queue: int | None = None
    max_pending: int | None = None


class WorkerDied(RuntimeError):
    """An estimate could not be completed: its worker kept dying."""


class LocalShard:
    """One shard served in this process: a registry + micro-batcher.

    It answers every call the server makes on a :class:`WorkerPool`, so
    in-process serving is a pool of one shard, not a second code path;
    each worker process runs one behind its frame loop.  The keyword
    options other than ``index`` go to the :class:`MicroBatcher`.
    """

    #: A local shard is always exactly one shard.
    workers = 1

    def __init__(self, registry: SessionRegistry, *, index: int = 0, **batcher_options):
        self.index = index
        self.registry = registry
        self.batcher = MicroBatcher(registry, **batcher_options)

    async def start(self) -> None:
        """Nothing to spawn: the registry admits groups on first use."""

    async def submit(self, key: str, database, constraints, generator, requests, mode):
        """Score one group's requests on the local batcher (``key``, the
        pool's routing key, is re-derived there from the registry memo)."""
        return await self.batcher.submit(
            database, constraints, generator, requests, mode
        )

    def document(self) -> dict:
        """This shard's stat document (a worker's ``stats`` frame reply)."""
        return {
            "shard": self.index,
            "pid": os.getpid(),
            "registry": self.registry.stats(),
            "batching": self.batcher.stats(),
        }

    async def stats(self, timeout: float | None = None) -> list[dict]:
        """The one per-shard document, shaped like :meth:`WorkerPool.stats`
        (``timeout`` is accepted for that parity; no wait happens here)."""
        return [{**self.document(), "alive": True, "restarts": 0}]

    def alive(self, shard: int) -> bool:
        """A local shard lives as long as the process does."""
        return True

    def kill(self, shard: int) -> int:
        """Refused: killing the local shard would kill the server."""
        raise ValueError("the in-process shard cannot be killed; run with --workers")

    def retry_after_hint(self, depth: int) -> int:
        """The batcher's ``Retry-After`` estimate for ``depth`` queued requests."""
        return self.batcher.retry_after_hint(depth)

    async def drain(self, timeout: float, error: BaseException) -> None:
        """Serve queued batch rounds for up to ``timeout`` seconds, then
        fail whatever is still queued with ``error``."""
        try:
            await asyncio.wait_for(self.batcher.drain(), timeout)
        except asyncio.TimeoutError:
            pass
        self.batcher.fail_pending(error)

    async def stop(self) -> None:
        """Spill warm sessions to the cache store (after :meth:`drain`;
        spilling walks session locks, so it runs off the event loop)."""
        await asyncio.get_running_loop().run_in_executor(None, self.registry.close)


# --------------------------------------------------------------------------------------
# Worker side (runs in the spawned child process)
# --------------------------------------------------------------------------------------


def _worker_main(shard: int, conn, config: WorkerConfig) -> None:
    """Child-process entry point: serve frames until shutdown/SIGTERM.

    The worker ignores SIGINT (the router's terminal Ctrl-C reaches the
    whole process group; shutdown is the router's call) and treats
    SIGTERM as a graceful-drain request: in-flight batches complete and
    the registry spills before exit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_loop(shard, conn, config))
    except (KeyboardInterrupt, BrokenPipeError):  # pragma: no cover - exit races
        pass


async def _worker_loop(shard: int, conn, config: WorkerConfig) -> None:
    loop = asyncio.get_running_loop()
    local = LocalShard(
        SessionRegistry(
            seed=config.seed,
            cache_dir=config.cache_dir,
            max_sessions=config.max_sessions,
        ),
        index=shard,
        max_queue=config.max_queue,
        max_pending=config.max_pending,
    )
    frames: asyncio.Queue = asyncio.Queue()
    send_lock = threading.Lock()

    def send(frame) -> None:
        blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        with send_lock:
            conn.send_bytes(blob)

    def read_frames() -> None:
        # Blocking pipe reads stay off the loop; EOF (router gone) and a
        # local shutdown sentinel both funnel through the same queue.
        while True:
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                loop.call_soon_threadsafe(frames.put_nowait, None)
                return
            loop.call_soon_threadsafe(frames.put_nowait, blob)

    threading.Thread(
        target=read_frames, name=f"repro-shard-{shard}-reader", daemon=True
    ).start()
    try:
        loop.add_signal_handler(
            signal.SIGTERM, lambda: frames.put_nowait(_SHUTDOWN_SENTINEL)
        )
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
        pass

    tasks: set[asyncio.Task] = set()

    async def handle(blob: bytes) -> None:
        request_id, kind, payload = pickle.loads(blob)
        try:
            if kind == "estimate":
                reply = (request_id, "result", await local.batcher.submit(*payload))
            elif kind == "warm":
                await loop.run_in_executor(None, local.registry.handle, *payload)
                reply = (request_id, "ok", None)
            elif kind == "stats":
                reply = (request_id, "stats", local.document())
            elif kind == "shutdown":
                frames.put_nowait(_SHUTDOWN_SENTINEL)
                reply = (request_id, "ok", None)
            else:
                reply = (request_id, "error", f"unknown frame kind {kind!r}")
        except QueueFull as error:
            reply = (
                request_id,
                "queue_full",
                (error.scope, error.depth, error.limit, error.retry_after),
            )
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            reply = (request_id, "error", f"{type(error).__name__}: {error}")
        try:
            await loop.run_in_executor(None, send, reply)
        except (OSError, ValueError):  # pragma: no cover - router went away
            pass

    while True:
        blob = await frames.get()
        if blob is None or blob is _SHUTDOWN_SENTINEL:
            break
        task = asyncio.create_task(handle(blob))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    # Graceful drain: finish accepted frames (each estimate frame waits
    # for its batch), then spill warm sessions.
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    await local.stop()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


#: Queue sentinel distinguishing "drain and exit" from reader EOF.
_SHUTDOWN_SENTINEL = object()


# --------------------------------------------------------------------------------------
# Router side
# --------------------------------------------------------------------------------------


class _Shard:
    """Router-side state for one worker process (one generation)."""

    __slots__ = (
        "shard",
        "process",
        "conn",
        "reader",
        "inflight",
        "send_lock",
        "dead",
    )

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn
        self.reader: threading.Thread | None = None
        # request_id -> (future, kind, payload, retries); loop-confined.
        self.inflight: dict[int, tuple] = {}
        self.send_lock = threading.Lock()
        self.dead = False


class WorkerPool:
    """The router's pool of warm worker processes, one per shard.

    All mutable state is confined to the asyncio event loop; reader
    threads (one per worker, blocking on the pipe) hand frames back via
    ``call_soon_threadsafe`` and sends run in the loop's default
    executor, so the loop never blocks on a pipe.

    Fault handling: a worker whose pipe hits EOF is respawned with the
    same shard id.  Its in-flight frames are retried on the replacement
    (estimates are idempotent — see the module docstring) up to
    ``_MAX_RETRIES`` times, and the keys recently routed to that shard
    are re-warmed from the cache store via fire-and-forget ``warm``
    frames, so a killed worker comes back hot instead of cold.
    """

    def __init__(
        self,
        config: WorkerConfig,
        workers: int,
        *,
        on_restart: Callable[[int], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.config = config
        self.workers = workers
        self._on_restart = on_restart
        self._loop: asyncio.AbstractEventLoop | None = None
        self._context = None
        self._shards: list[_Shard] = []
        self._ids = itertools.count(1)
        self._stopping = False
        #: Monotone per-shard respawn counters (rendered as a counter
        #: metric — the router owns them, so restarts never reset them).
        self.restarts = [0] * workers
        # key -> (database, constraints, generator): the bounded LRU of
        # recently routed groups used to re-warm a respawned shard.
        self._warm = Memo(_WARM_KEYS)
        self._revivals: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker (concurrently — spawn imports are slow)."""
        from ..engine.batch import START_METHOD_ENV, _pool_context

        self._loop = asyncio.get_running_loop()
        if os.environ.get(START_METHOD_ENV):
            self._context = _pool_context()
        else:
            # Never default to fork here, even when the process is still
            # single-threaded at resolution time: shards are forked
            # concurrently from executor threads, so a forked sibling
            # inherits every already-created shard pipe — and a held
            # write end means a SIGKILLed worker never EOFs its reader,
            # so the router never notices the death (no respawn).
            # Spawned children fork+exec with explicit fd passing, which
            # cannot cross-inherit.
            self._context = multiprocessing.get_context("spawn")
        self._shards = list(
            await asyncio.gather(
                *(
                    self._loop.run_in_executor(None, self._spawn, shard)
                    for shard in range(self.workers)
                )
            )
        )

    def _spawn(self, shard: int) -> _Shard:
        """Blocking: fork/spawn one worker and wire its reader thread."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(shard, child_conn, self.config),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Shard(shard, process, parent_conn)
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"repro-router-read-{shard}",
            daemon=True,
        )
        worker.reader.start()
        return worker

    async def drain(self, timeout: float, error: BaseException) -> None:
        """Wait up to ``timeout`` seconds for in-flight frames, then fail
        the ones still waiting with ``error``."""
        waiting = [
            entry[0] for worker in self._shards for entry in worker.inflight.values()
        ]
        if waiting:
            await asyncio.wait(waiting, timeout=timeout)
        self._fail_inflight(error)

    def _fail_inflight(self, error: BaseException) -> None:
        """Fail every unresolved in-flight frame with ``error`` and forget
        them (a late reply then finds no entry and is dropped)."""
        for worker in self._shards:
            for future, *_ in worker.inflight.values():
                if not future.done():
                    future.set_exception(error)
            worker.inflight.clear()

    async def stop(self, timeout: float = 10.0) -> None:
        """Drain and terminate every worker (graceful, then forceful)."""
        if self._loop is None or self._stopping:
            return
        self._stopping = True
        goodbyes = []
        for worker in self._shards:
            future = self._loop.create_future()
            self._dispatch(worker.shard, future, "shutdown", None)
            goodbyes.append(future)
        if goodbyes:
            done, pending = await asyncio.wait(goodbyes, timeout=timeout)
            for future in pending:
                future.cancel()
            for future in done:
                future.exception()  # consume, ignore
        for worker in self._shards:
            await self._loop.run_in_executor(None, self._reap, worker, timeout)
        self._fail_inflight(WorkerDied("worker pool stopped"))

    @staticmethod
    def _reap(worker: _Shard, timeout: float) -> None:
        worker.process.join(timeout)
        if worker.process.is_alive():  # pragma: no cover - drain overrun
            worker.process.terminate()
            worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def alive(self, shard: int) -> bool:
        """Whether ``shard``'s current process is running."""
        worker = self._shards[shard]
        return not worker.dead and worker.process.is_alive()

    def retry_after_hint(self, depth: int) -> int:
        """The router's ``Retry-After`` hint: the minimum, one second.

        Batch timings live in the workers; a shard that refuses work
        sends its own batcher's hint back with the ``queue_full`` reply.
        """
        return 1

    def kill(self, shard: int) -> int:
        """SIGKILL ``shard``'s worker (fault injection); returns its pid.

        The reader thread notices the EOF and the normal respawn/retry
        path takes over — this is exactly the fault the loadtest's
        per-worker kill beat injects.
        """
        if not 0 <= shard < self.workers:
            raise ValueError(f"shard must be in [0, {self.workers})")
        process = self._shards[shard].process
        pid = process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
        return pid or -1

    # -- request path ------------------------------------------------------------------

    async def submit(
        self,
        key: str,
        database,
        constraints,
        generator,
        requests: Sequence,
        mode: str,
    ):
        """Route one instance group's requests to its shard and await rows.

        Raises :class:`~repro.service.batching.QueueFull` when the
        shard's batcher refuses admission (the server's 429 path works
        unchanged) and :class:`WorkerDied` when the shard keeps dying.
        """
        shard = shard_for_key(key, self.workers)
        self._warm.put(key, (database, constraints, generator))
        status, payload = await self._request(
            shard, "estimate", (database, constraints, generator, list(requests), mode)
        )
        return payload

    async def stats(self, timeout: float = 5.0) -> list[dict | None]:
        """Per-shard stat documents (``None`` for unresponsive shards)."""

        async def one(shard: int) -> dict | None:
            try:
                status, payload = await asyncio.wait_for(
                    self._request(shard, "stats", None), timeout
                )
                document = dict(payload)
            except (asyncio.TimeoutError, WorkerDied, QueueFull):
                document = {"shard": shard, "registry": None, "batching": None}
            document["alive"] = self.alive(shard)
            document["restarts"] = self.restarts[shard]
            return document

        return list(await asyncio.gather(*(one(s) for s in range(self.workers))))

    async def _request(self, shard: int, kind: str, payload):
        assert self._loop is not None, "WorkerPool.start() was never awaited"
        future = self._loop.create_future()
        self._dispatch(shard, future, kind, payload)
        status, result = await future
        return status, result

    def _dispatch(
        self, shard: int, future: asyncio.Future, kind: str, payload, retries: int = 0
    ) -> None:
        """Loop-side: register the frame in-flight and post it.

        Frames dispatched to a shard mid-respawn park in the dead
        worker's ``inflight`` map; the revival migrates them to the
        replacement, so callers never observe the gap.
        """
        worker = self._shards[shard]
        request_id = next(self._ids)
        worker.inflight[request_id] = (future, kind, payload, retries)
        if not worker.dead:
            self._post(worker, request_id, kind, payload)

    def _post(self, worker: _Shard, request_id: int, kind: str, payload) -> None:
        blob = pickle.dumps(
            (request_id, kind, payload), protocol=pickle.HIGHEST_PROTOCOL
        )

        def write() -> None:
            try:
                with worker.send_lock:
                    worker.conn.send_bytes(blob)
            except (OSError, ValueError, BrokenPipeError):
                # The reader thread sees the same death and triggers the
                # respawn path, which retries this frame.
                pass

        self._loop.run_in_executor(None, write)

    def _read_loop(self, worker: _Shard) -> None:
        while True:
            try:
                blob = worker.conn.recv_bytes()
            except (EOFError, OSError):
                self._loop.call_soon_threadsafe(self._worker_died, worker)
                return
            self._loop.call_soon_threadsafe(self._deliver, worker, blob)

    def _deliver(self, worker: _Shard, blob: bytes) -> None:
        request_id, status, payload = pickle.loads(blob)
        entry = worker.inflight.pop(request_id, None)
        if entry is None:
            return
        future, _kind, _payload, _retries = entry
        if future.done():
            return
        if status == "queue_full":
            scope, depth, limit, retry_after = payload
            future.set_exception(QueueFull(scope, depth, limit, retry_after))
        elif status == "error":
            future.set_exception(
                RuntimeError(f"shard {worker.shard}: {payload}")
            )
        else:
            future.set_result((status, payload))

    # -- death and rebirth -------------------------------------------------------------

    def _worker_died(self, worker: _Shard) -> None:
        if worker.dead or self._stopping:
            return
        if self._shards[worker.shard] is not worker:
            return  # a stale generation's reader winding down
        worker.dead = True
        self.restarts[worker.shard] += 1
        if self._on_restart is not None:
            self._on_restart(worker.shard)
        task = asyncio.ensure_future(self._revive(worker))
        self._revivals.add(task)
        task.add_done_callback(self._revivals.discard)

    async def _revive(self, worker: _Shard) -> None:
        shard = worker.shard
        await self._loop.run_in_executor(None, worker.process.join, 1.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        replacement = await self._loop.run_in_executor(None, self._spawn, shard)
        if self._stopping:
            return
        # From here to the end of the method is one synchronous block on
        # the loop: dispatches cannot interleave, so no frame can slip
        # into the dead worker's map after migration.
        self._shards[shard] = replacement
        # Re-warm the shard's recently routed groups from the store
        # (fire-and-forget: a warm failure just means a cold first hit).
        for key, group in self._warm.items():
            if shard_for_key(key, self.workers) == shard:
                request_id = next(self._ids)
                self._post(replacement, request_id, "warm", group)
        # Transparently retry what the dead worker was holding.
        pending = worker.inflight
        worker.inflight = {}
        for future, kind, payload, retries in pending.values():
            if future.done():
                continue
            if retries >= _MAX_RETRIES:
                future.set_exception(
                    WorkerDied(
                        f"shard {shard} died {retries + 1} times executing one frame"
                    )
                )
            else:
                self._dispatch(shard, future, kind, payload, retries + 1)
