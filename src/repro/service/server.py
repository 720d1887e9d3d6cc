"""The estimation HTTP server: a stdlib-only asyncio JSON API, hardened.

Endpoints (request/response JSON specified in ``docs/FORMATS.md``):

* ``POST /estimate`` — a workload-shaped document (``instances`` +
  ``requests`` + optional ``mode``/``defaults``, the exact
  ``python -m repro batch`` format with *inline* instance documents) or
  a single-request document (``instance`` + ``query`` + optional
  ``generator``/``answer``/``answers``/``epsilon``/``delta``/
  ``method``/``max_samples``/``mode``/``label``); responds with
  ``{"mode": ..., "results": [row, ...]}`` in request order, each row in
  the ``batch --json`` schema (scope errors are *rows*, not HTTP
  errors).
* ``POST /answers`` — single-request shape without ``answer``; expands
  every candidate tuple of ``Q(D)`` (the workload format's
  ``"answers": "all"``) and responds ``{"answers": [row, ...]}``.
* ``GET /healthz`` — liveness + session count.
* ``GET /stats`` — registry, micro-batcher, answer-cache and server
  counters as one JSON document.
* ``GET /metrics`` — the same operational signals in Prometheus text
  exposition format (:mod:`repro.service.metrics`).

Operational hardening (PR 7):

* **Backpressure** — the micro-batcher's queues are bounded
  (``max_queue`` per group, ``max_pending`` total); a request that
  would exceed them is refused with ``429`` and a ``Retry-After``
  header *before* any work is enqueued, so saturation degrades into
  fast rejections instead of unbounded queueing.
* **Deadline budgets** — a per-request ``budget_seconds`` document
  field (``408`` on expiry) and a server-wide ``default_budget``
  (``504``); expiry cancels the request's queued work, so a timed-out
  request stops consuming capacity.
* **Answer cache** — a digest-verified LRU of served result rows
  (:class:`~repro.service.cache.AnswerCache`) keyed by everything that
  determines a row; hits bypass the batcher entirely.  Seeded servers
  only — unseeded estimates are not reproducible, so they are never
  memoized.
* **Fault injection** (``fault_injection=True`` / ``serve
  --enable-fault-injection``) — a ``POST /_fault`` endpoint the
  load-test harness uses to slow handlers, poison cache entries, and
  (PR 9) inject disk faults — ``disk_enospc`` / ``disk_bitflip``
  install a persistent :mod:`repro.engine.fsfault` plan, and
  ``spill_sessions`` / ``drop_sessions`` exercise the store so the
  fault (and recovery) is observable immediately; absent (404) in
  normal operation.
* **Degraded-mode storage** (PR 9) — registry warm-start/spill
  failures are absorbed and accounted
  (``repro_store_errors_total{op,kind}``, ``repro_degraded_mode``,
  ``storage`` sections in ``/healthz`` and ``/stats``); a broken disk
  degrades the cache, never the answers.

Instance documents must be inline: the on-disk workload format's
"instance by file path" convenience is rejected here (a network service
must not read files named by its callers).

The server is deliberately minimal HTTP/1.1 with zero dependencies:
``Content-Length`` framing only, no chunked bodies.  Connections are
persistent: requests on one connection (pipelined ones included) are
answered in order, and the connection closes after a response to an
HTTP/1.0 or ``Connection: close`` request, after a framing error whose
body was left unread, when the peer stays silent for
:data:`READ_TIMEOUT_SECONDS`, and at shutdown.  A warm round trip is
mostly fixed cost, so the request path also memoizes parsed inline
instances (:meth:`EstimationServer._parse_instance`): a repeated small
instance document is parsed once.
"""

from __future__ import annotations

import asyncio
import json
import signal as signal_module
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Mapping, NamedTuple

from ..core.database import Database
from ..core.dependencies import FDSet
from ..engine import fsfault as _fsfault
from ..engine.batch import (
    BatchRequest,
    BatchResult,
    group_positions,
    in_request_order,
)
from ..io import (
    InstanceFormatError,
    batch_result_to_row,
    instance_from_dict,
    mode_from_dict,
    workload_from_dict,
)
from .batching import QueueFull
from .cache import (
    DEFAULT_ANSWER_CACHE_SIZE,
    INSTANCE_MEMO_MAX_BYTES,
    AnswerCache,
    Memo,
)
from .metrics import LATENCY_BUCKETS, WIDTH_BUCKETS, MetricsRegistry
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry
from .sharding import LocalShard, WorkerConfig, WorkerPool, aggregate_shard_stats

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Request bodies past this size are rejected (64 MiB — far above any
#: reasonable workload document, far below a memory-exhaustion payload).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: A connection must deliver its next complete request (head and body)
#: within this window; slow, truncated-then-silent and idle keep-alive
#: peers are dropped instead of pinning a reader task forever.  It bounds
#: reading only: an admitted request runs under its deadline budget.
READ_TIMEOUT_SECONDS = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request-row fields forwarded from a single-request document into the
#: wrapped workload row (everything else is server-side configuration).
_SINGLE_REQUEST_FIELDS = (
    "query",
    "generator",
    "answer",
    "answers",
    "epsilon",
    "delta",
    "method",
    "max_samples",
)


#: ``POST /_fault`` keys that act on the store or the warm sessions of
#: this process — refused under ``--workers``, where both live in the
#: worker processes.
_DISK_FAULTS = ("disk_enospc", "disk_bitflip", "spill_sessions", "drop_sessions")


#: Per-shard wait for the ``/healthz`` session count.
_HEALTHZ_POLL_SECONDS = 0.25


class _BadRequest(Exception):
    """A client error carried to the HTTP layer as a 400 row."""


class _ShuttingDown(Exception):
    """The server is draining for shutdown: queued work fails as 503.

    The graceful-shutdown contract: :meth:`EstimationServer.stop` first
    *drains* queued batch rounds, and only waiters that outlive the
    drain timeout are failed with this — never silently dropped (the
    pre-fix behavior when the loop closed under them).
    """


class _DeadlineExceeded(Exception):
    """A request budget expired: 408 (client budget) or 504 (server's)."""

    def __init__(self, status: int, budget: float):
        self.status = status
        self.budget = budget
        super().__init__(
            f"request budget of {budget:g}s exceeded; partial work cancelled"
        )


class _Response:
    """One rendered HTTP response (status, body, headers)."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Mapping[str, str] | None = None,
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})


class _Request(NamedTuple):
    """One request read off a connection, with its framing settled."""

    method: str
    path: str
    body: bytes
    keep_alive: bool
    started: float


def _json_response(
    status: int, payload: Any, headers: Mapping[str, str] | None = None
) -> _Response:
    return _Response(
        status, json.dumps(payload).encode("utf-8"), headers=headers
    )


def _render(response: _Response, keep_alive: bool) -> bytes:
    """The response's wire bytes; ``Connection: close`` unless kept alive."""
    head_lines = [
        f"HTTP/1.1 {response.status} {_STATUS_TEXT.get(response.status, 'Error')}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
    ]
    head_lines.extend(f"{name}: {value}" for name, value in response.headers.items())
    if not keep_alive:
        head_lines.append("Connection: close")
    return ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii") + response.body


def _parse_body(body: bytes) -> Mapping[str, Any]:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(f"request body is not valid JSON: {error}") from None
    if not isinstance(document, Mapping):
        raise _BadRequest("request body must be a JSON object")
    return document


def _reject_instance_paths(instances: Any) -> None:
    """The service never loads instances from server-side file paths."""
    if isinstance(instances, Mapping):
        for name, spec in instances.items():
            if not isinstance(spec, Mapping):
                raise _BadRequest(
                    f"instance {name!r} must be an inline instance document "
                    "(file paths are not served)"
                )


def _estimate_requests(
    document: Mapping[str, Any], parse_instance: Callable
) -> tuple[list[BatchRequest], str]:
    """Both ``/estimate`` body shapes → (requests, mode)."""
    if "requests" in document:
        _reject_instance_paths(document.get("instances"))
        try:
            requests = workload_from_dict(document, parse_instance=parse_instance)
            return requests, mode_from_dict(document)
        except InstanceFormatError as error:
            raise _BadRequest(str(error)) from None
    return _single_request(document, parse_instance)


def _single_request(
    document: Mapping[str, Any],
    parse_instance: Callable,
    force_all_answers: bool = False,
) -> tuple[list[BatchRequest], str]:
    """A single-request document, wrapped into the workload format."""
    instance = document.get("instance")
    if not isinstance(instance, Mapping):
        raise _BadRequest(
            "request needs an inline 'instance' document (or use the "
            "workload shape with 'instances' + 'requests')"
        )
    label = document.get("label", "request")
    if not isinstance(label, str):
        raise _BadRequest("'label' must be a string")
    row = {
        key: document[key] for key in _SINGLE_REQUEST_FIELDS if key in document
    }
    if force_all_answers:
        row.pop("answer", None)
        row["answers"] = "all"
    row["instance"] = label
    wrapped = {"instances": {label: instance}, "requests": [row]}
    if "backend" in document:
        wrapped["backend"] = document["backend"]  # rejected by the parser
    try:
        requests = workload_from_dict(wrapped, parse_instance=parse_instance)
        return requests, mode_from_dict(document)
    except InstanceFormatError as error:
        raise _BadRequest(str(error)) from None


class _ShardCounters:
    """Registry counters summed over shards, monotone across respawns.

    A respawned worker's registry counts from zero again, so a shard's
    last reported counts are carried over whenever its ``restarts`` count
    moves, and a shard missing from a snapshot (dead or slow) keeps its
    last counts — the totals never decrease.
    """

    def __init__(self, fields: tuple[str, ...]):
        self._fields = fields
        #: shard -> (restarts, counts) as last reported.
        self._last: dict[Any, tuple[int, dict[str, int]]] = {}
        #: The counts of every shard's earlier (pre-respawn) lives.
        self._carried: Counter[str] = Counter()

    def update(self, snapshot: list[dict | None]) -> None:
        """Fold one shard snapshot (the :meth:`WorkerPool.stats` shape)."""
        for entry in snapshot:
            registry = entry.get("registry") if entry else None
            if not registry:
                continue
            shard, restarts = entry.get("shard"), entry.get("restarts", 0)
            previous = self._last.get(shard)
            if previous is not None and previous[0] != restarts:
                self._carried.update(previous[1])
            counts = {field: registry.get(field, 0) for field in self._fields}
            self._last[shard] = (restarts, counts)

    def total(self, field: str) -> int:
        """``field`` summed over every shard's current and earlier lives."""
        current = sum(counts[field] for _, counts in self._last.values())
        return self._carried[field] + current


class EstimationServer:
    """The asyncio HTTP server in front of a pool of shards.

    Hardening knobs (all optional; ``None``/default = pre-hardening
    behavior): ``max_queue`` / ``max_pending`` bound each shard
    micro-batcher's queued requests per group / in total,
    ``default_budget`` is the server-wide deadline (seconds) applied to
    requests that bring no ``budget_seconds`` of their own,
    ``answer_cache_size`` sizes the memoized answer cache (0 disables
    it), and ``fault_injection`` enables the ``POST /_fault`` test
    surface.

    Estimation always goes through :attr:`shards` — ``submit`` per
    instance group, ``stats`` for ``/stats`` and ``/metrics``,
    ``drain`` / ``stop`` at shutdown.  By default that is one
    :class:`~repro.service.sharding.LocalShard` over ``registry``.
    ``workers=N`` (``serve --workers N``) makes it a
    :class:`~repro.service.sharding.WorkerPool` of ``N`` warm worker
    processes, each running a local shard built from this server's
    configuration, with groups routed by
    :func:`~repro.service.sharding.shard_for_key` over the registry key.
    The server's registry then only derives keys and seeds (it never
    admits sessions).  The answer cache and the ``max_inflight`` bound
    stay in the server either way.  Results are bit-identical at any
    worker count — placement cannot matter because group seeds are
    content-derived.
    """

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_queue: int | None = None,
        max_pending: int | None = None,
        max_inflight: int | None = None,
        default_budget: float | None = None,
        answer_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE,
        fault_injection: bool = False,
        workers: int | None = None,
    ):
        if default_budget is not None and default_budget <= 0:
            raise ValueError("default_budget must be positive (or None)")
        if answer_cache_size < 0:
            raise ValueError("answer_cache_size must be >= 0")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive (or None)")
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive (or None for in-process)")
        for name, bound in (("max_queue", max_queue), ("max_pending", max_pending)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be >= 0")
        self.workers = workers or 0
        self.max_queue = max_queue
        self.max_pending = max_pending
        self._shard_snapshot: list[dict | None] = []
        self._registry_counters = _ShardCounters(("hits", "misses", "evictions"))
        self.registry = registry if registry is not None else SessionRegistry()
        self.metrics = MetricsRegistry()
        self._build_metrics()
        self.shards: LocalShard | WorkerPool
        if self.workers:
            self.shards = WorkerPool(
                self._worker_config(),
                self.workers,
                on_restart=lambda shard: self._m_worker_restarts.labels(
                    str(shard)
                ).inc(),
            )
        else:
            self.shards = LocalShard(
                self.registry,
                max_queue=max_queue,
                max_pending=max_pending,
                on_batch=self._observe_batch,
            )
        self.default_budget = default_budget
        self.max_inflight = max_inflight
        self._inflight = 0
        self._connections: set[asyncio.Task] = set()
        #: Writers of connections waiting for their next request's first
        #: byte: :meth:`stop` closes these at once.
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False
        #: Instance document text → parsed pair, at most one per session
        #: the registry may keep (:meth:`_parse_instance`).
        self._instances = Memo(self.registry.max_sessions)
        self.answer_cache = (
            AnswerCache(answer_cache_size) if answer_cache_size else None
        )
        self.fault_injection = fault_injection
        self._faults: dict[str, float] = {
            "slow_seconds": 0.0,
            "disk_enospc": 0.0,
            "disk_bitflip": 0.0,
        }
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.requests_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._started_at: float | None = None

    # -- metrics -----------------------------------------------------------------------

    def _build_metrics(self) -> None:
        metrics = self.metrics
        self._m_requests = metrics.counter(
            "repro_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self._m_request_seconds = metrics.histogram(
            "repro_request_seconds",
            "Wall-clock HTTP request handling latency in seconds, by "
            "endpoint and status (admitted latency is the status=200 series).",
            LATENCY_BUCKETS,
            ("endpoint", "status"),
        )
        self._m_batch_seconds = metrics.histogram(
            "repro_batch_seconds",
            "Coalesced batch execution latency in seconds, by group key prefix.",
            LATENCY_BUCKETS,
            ("group",),
        )
        self._m_batch_width = metrics.histogram(
            # Dimensionless by design (a request count, not a latency);
            # its _bucket/_count/_sum series are still counter-shaped and
            # the monotonicity checker covers them via those suffixes.
            "repro_batch_width",  # repro-lint: disable=RL005
            "Estimation requests coalesced into one batch pass.",
            WIDTH_BUCKETS,
        )
        self._m_connections = metrics.counter(
            "repro_connections_total",
            "TCP connections accepted (persistent connections carry many "
            "requests each).",
        )
        self._m_rejected = metrics.counter(
            "repro_rejected_total",
            "Requests refused admission, by reason.",
            ("reason",),
        )
        metrics.counter(
            "repro_estimates_served_total",
            "Estimation request rows served (cache hits included).",
            callback=lambda: self.requests_served,
        )
        metrics.gauge(
            "repro_sessions",
            "Warm sessions currently held by the shards' registries.",
            callback=self._shard_total("registry", "sessions"),
        )
        counters = self._registry_counters
        metrics.counter(
            "repro_registry_hits_total",
            "Warm session registry hits, summed over the shards.",
            callback=lambda: counters.total("hits"),
        )
        metrics.counter(
            "repro_registry_misses_total",
            "Registry misses (cold admissions), summed over the shards.",
            callback=lambda: counters.total("misses"),
        )
        metrics.counter(
            "repro_registry_evictions_total",
            "Warm sessions evicted from the shards' registry LRUs.",
            callback=lambda: counters.total("evictions"),
        )
        # Store failures arrive from worker threads (spills, admissions),
        # so the labeled counter is driven by the registry log's listener
        # rather than a callback (labeled callbacks are not supported,
        # and the log already serializes recording).
        self._m_store_errors = metrics.counter(
            "repro_store_errors_total",
            "Cache-store failures absorbed into degraded mode, by "
            "operation (load/spill/save) and kind.",
            ("op", "kind"),
        )
        self.registry.storage.listener = (
            lambda op, kind: self._m_store_errors.labels(op, kind).inc()
        )
        metrics.gauge(
            "repro_degraded_mode",
            "1 while the most recent cache-store interaction failed "
            "(this process or any shard), 0 otherwise.",
            callback=self._storage_degraded,
        )
        metrics.counter(
            "repro_answer_cache_hits_total",
            "Answer cache hits.",
            callback=lambda: self.answer_cache.hits if self.answer_cache else 0,
        )
        metrics.counter(
            "repro_answer_cache_misses_total",
            "Answer cache misses.",
            callback=lambda: self.answer_cache.misses if self.answer_cache else 0,
        )
        metrics.counter(
            "repro_answer_cache_poisoned_total",
            "Answer cache entries dropped after digest verification failed.",
            callback=lambda: self.answer_cache.poisoned if self.answer_cache else 0,
        )
        metrics.gauge(
            "repro_answer_cache_entries",
            "Answer cache entries currently held.",
            callback=lambda: len(self.answer_cache) if self.answer_cache else 0,
        )
        metrics.gauge(
            "repro_inflight_requests",
            "Estimation endpoint requests currently being handled.",
            callback=lambda: self._inflight,
        )
        metrics.gauge(
            "repro_pending_requests",
            "Estimation requests queued in the shards' micro-batchers.",
            callback=self._shard_total("batching", "pending_requests"),
        )
        # The loadtest harness uses this as the server-lifetime marker: a
        # decrease between scrapes means a restart, which legitimately
        # resets every counter above.
        metrics.gauge(
            "repro_uptime_seconds",
            "Seconds since this server process started serving.",
            callback=lambda: (
                0.0
                if self._started_at is None
                else time.monotonic() - self._started_at
            ),
        )
        # Per-shard breakdowns (one shard, "0", in-process).  The restart
        # counter is server-owned (monotone across respawns); the
        # per-shard registry/batcher series are *gauges* because a
        # respawned worker's counters restart from zero — a labeled
        # counter would violate the monotonicity invariant the loadtest
        # asserts.
        self._m_worker_restarts = metrics.counter(
            "repro_worker_restarts_total",
            "Worker processes respawned after dying, by shard.",
            ("shard",),
        )
        metrics.gauge(
            "repro_shard_workers",
            "Shard count (1 when serving in-process).",
            callback=lambda: self.shards.workers,
        )
        for name, help_text, section, field in (
            (
                "repro_shard_sessions",
                "Warm sessions held per shard registry.",
                "registry",
                "sessions",
            ),
            (
                "repro_shard_registry_hits",
                "Registry hits per shard (resets on respawn).",
                "registry",
                "hits",
            ),
            (
                "repro_shard_registry_misses",
                "Registry misses per shard (resets on respawn).",
                "registry",
                "misses",
            ),
            (
                "repro_shard_store_errors",
                "Cache-store failures per shard registry (resets on respawn).",
                "registry",
                "store_errors",
            ),
            (
                "repro_shard_pending_requests",
                "Micro-batcher queued requests per shard.",
                "batching",
                "pending_requests",
            ),
            (
                "repro_shard_batches_run",
                "Coalesced batches executed per shard (resets on respawn).",
                "batching",
                "batches_run",
            ),
        ):
            metrics.gauge(
                name,
                help_text,
                callback=self._shard_gauge(section, field),
                labelnames=("shard",),
            )

    def _shard_gauge(self, section: str, field: str):
        """A labeled-gauge callback reading the latest shard snapshot.

        The snapshot refreshes on every ``/stats`` and ``/metrics``
        request (see :meth:`_refresh_shards`) — gauge callbacks must not
        await, so rendering reads the cached documents.
        """

        def read() -> dict[str, float]:
            series: dict[str, float] = {}
            for entry in self._shard_snapshot:
                if not entry or not entry.get(section):
                    continue
                series[str(entry.get("shard"))] = entry[section].get(field, 0)
            return series

        return read

    def _shard_total(self, section: str, field: str):
        """A gauge callback summing ``field`` over the latest shard snapshot."""
        return lambda: aggregate_shard_stats(self._shard_snapshot)[section][field]

    def _storage_degraded(self) -> int:
        """1 while any registry's last store interaction failed.

        Covers the server's registry (read live) and the most recent
        shard snapshot (refreshed on every ``/stats`` and ``/metrics``
        request, so scraping keeps it current).
        """
        if self.registry.storage.degraded:
            return 1
        for entry in self._shard_snapshot:
            if entry and (entry.get("registry") or {}).get("degraded"):
                return 1
        return 0

    def _observe_batch(self, key: str, seconds: float, width: int) -> None:
        self._m_batch_seconds.labels(key[:12]).observe(seconds)
        self._m_batch_width.observe(width)

    # -- lifecycle ---------------------------------------------------------------------

    def _worker_config(self) -> WorkerConfig:
        """The picklable recipe each shard builds its own plane from."""
        registry = self.registry
        return WorkerConfig(
            seed=registry.seed,
            cache_dir=None if registry.store is None else registry.store.directory,
            max_sessions=registry.max_sessions,
            max_queue=self.max_queue,
            max_pending=self.max_pending,
        )

    async def start(self) -> tuple[str, int]:
        """Start the shards, bind and start serving; returns ``(host,
        port)`` actually bound (``port=0`` picks an ephemeral port)."""
        await self.shards.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._started_at = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (:meth:`start` must have run)."""
        await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, drain queued work, then stop the shards.

        The graceful-shutdown order: close the listener (no new
        requests) and every idle connection (no request started on it),
        give the shards ``drain_timeout`` seconds to finish queued work,
        fail whatever remains with a clean 503 (never a silent drop), and
        stop the shards — a local shard spills its registry to the cache
        store, a worker pool SIGTERM-drains each worker, which spills its
        own.  Busy connections answer their current request with
        ``Connection: close``.
        """
        self._closing = True
        for writer in self._idle:
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.shards.drain(
            drain_timeout,
            _ShuttingDown("server shutting down; request was not executed"),
        )
        # Connection handlers may still be mid-request (e.g. a handler
        # that had not reached a shard when it drained); let them
        # finish writing their responses before the engine goes away.
        pending = {task for task in self._connections if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout)
        await self.shards.stop()

    @property
    def url(self) -> str:
        """The served base URL (after :meth:`start`)."""
        if self.address is None:
            raise RuntimeError("server not started")
        return f"http://{self.address[0]}:{self.address[1]}"

    # -- HTTP plumbing -----------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._m_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()

    async def _serve_connection(self, reader, writer) -> None:
        """Answer requests on one persistent connection, in order.

        :data:`READ_TIMEOUT_SECONDS` bounds the wait for each request's
        head and body, never its execution.
        """
        while not self._closing:
            self._idle.add(writer)
            try:
                async with asyncio.timeout(READ_TIMEOUT_SECONDS):
                    first = await reader.readexactly(1)
                    self._idle.discard(writer)
                    request = await self._read_request(first, reader)
            except (
                asyncio.IncompleteReadError,
                TimeoutError,
                ConnectionError,
                asyncio.LimitOverrunError,
                ValueError,  # readuntil() wraps over-long heads in this
            ):
                return
            finally:
                self._idle.discard(writer)
            if isinstance(request, _Response):
                # A framing error: the body (if any) is unread, so the
                # stream cannot be trusted for a next request.
                response, keep_alive = request, False
            else:
                response = await self._answer(request)
                keep_alive = request.keep_alive and not self._closing
            try:
                writer.write(_render(response, keep_alive))
                await writer.drain()
            except ConnectionError:  # pragma: no cover - client gone
                return
            if not keep_alive:
                return

    async def _answer(self, request: _Request) -> _Response:
        try:
            response = await self._dispatch(request.method, request.path, request.body)
        # ``Exception`` (not ``BaseException``) by contract: CrashPoint
        # sails through this backstop exactly like SIGKILL would.
        except Exception as error:  # pragma: no cover  # repro-lint: disable=RL003
            return _json_response(500, {"error": f"internal error: {error}"})
        return self._finish(self._endpoint_label(request.path), response, request.started)

    async def _read_request(self, first: bytes, reader) -> _Request | _Response:
        """Read one request whose first byte is ``first``.

        Returns the request, or the error response for a request whose
        framing cannot be trusted (the caller then closes the
        connection): a malformed request line, ``Transfer-Encoding``
        (only ``Content-Length`` framing is served), a malformed or
        conflicting ``Content-Length``, or an oversized body.
        """
        # The whole head arrives in one readuntil: under a rejection
        # flood every await is an event-loop round trip, and a
        # line-by-line header loop costs ~10 of them per request.
        head = first + await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        request_line = lines[0].strip()
        if not request_line:
            raise ConnectionError("empty request")
        started = time.perf_counter()
        parts = request_line.split()
        if len(parts) != 3:
            return self._finish(
                "other",
                _json_response(400, {"error": f"malformed request line {request_line!r}"}),
                started,
            )
        method, target, version = parts
        path = target.split("?", 1)[0]
        keep_alive = version == "HTTP/1.1"
        lengths: set[str] = set()
        chunked = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                lengths.add(value.strip())
            elif name == "transfer-encoding":
                chunked = True
            elif name == "connection":
                if "close" in (token.strip().lower() for token in value.split(",")):
                    keep_alive = False
        error, length = None, 0
        if chunked:
            error = "Transfer-Encoding is not supported; send Content-Length"
        elif len(lengths) > 1:
            error = "conflicting Content-Length headers"
        elif lengths:
            (text,) = lengths
            if text.isascii() and text.isdigit():
                length = int(text)
            else:
                error = "malformed Content-Length"
        if length > MAX_BODY_BYTES:
            return self._finish(
                self._endpoint_label(path),
                _json_response(
                    413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}
                ),
                started,
            )
        if error is not None:
            return self._finish(
                self._endpoint_label(path), _json_response(400, {"error": error}), started
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(method, path, body, keep_alive, started)

    def _endpoint_label(self, path: str) -> str:
        """Known route paths verbatim; everything else pooled (bounded
        label cardinality — callers must not mint metric series)."""
        return path if path in self._routes() else "other"

    def _finish(self, endpoint: str, response: _Response, started: float) -> _Response:
        self._m_requests.labels(endpoint, str(response.status)).inc()
        self._m_request_seconds.labels(endpoint, str(response.status)).observe(
            time.perf_counter() - started
        )
        return response

    # -- routing -----------------------------------------------------------------------

    def _routes(self) -> dict[str, tuple[str, Callable]]:
        routes = {
            "/healthz": ("GET", self._healthz),
            "/stats": ("GET", self._stats),
            "/metrics": ("GET", self._metrics_endpoint),
            "/estimate": ("POST", self._estimate),
            "/answers": ("POST", self._answers),
        }
        if self.fault_injection:
            routes["/_fault"] = ("POST", self._fault)
        return routes

    async def _dispatch(self, method: str, path: str, body: bytes) -> _Response:
        routes = self._routes()
        route = routes.get(path)
        if route is None:
            return _json_response(
                404, {"error": f"unknown path {path!r}", "paths": sorted(routes)}
            )
        expected, endpoint = route
        if method != expected:
            return _json_response(405, {"error": f"{path} expects {expected}"})
        try:
            if expected == "GET":
                result = await endpoint()
            elif path in ("/estimate", "/answers"):
                result = await self._admit_request(endpoint, body)
            else:
                result = await endpoint(_parse_body(body))
        except _BadRequest as error:
            return _json_response(400, {"error": str(error)})
        except _ShuttingDown as error:
            return _json_response(503, {"error": str(error)})
        except QueueFull as error:
            self._m_rejected.labels("queue_full").inc()
            return _json_response(
                429,
                {
                    "error": str(error),
                    "retry_after_seconds": error.retry_after,
                },
                headers={"Retry-After": str(error.retry_after)},
            )
        except _DeadlineExceeded as error:
            return _json_response(error.status, {"error": str(error)})
        if isinstance(result, _Response):
            return result
        return _json_response(200, result)

    async def _admit_request(self, endpoint, body: bytes):
        """Run one estimation endpoint under the ``max_inflight`` bound.

        Body parsing, instance construction, and cache-key hashing all
        run on the event loop, so *connection-level* concurrency — not
        just the batcher queue — needs an admission bound: without one,
        every concurrent request waits behind the CPU work of all the
        others (head-of-line blocking the batcher bounds cannot see).
        The check runs *before* the body is parsed, so a rejected
        request costs almost nothing.  Single-threaded event loop, so
        the counter needs no lock.
        """
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            raise QueueFull(
                "inflight",
                self._inflight,
                self.max_inflight,
                self.shards.retry_after_hint(self._inflight),
            )
        self._inflight += 1
        try:
            parse_instance = (
                self._parse_instance
                if len(body) <= INSTANCE_MEMO_MAX_BYTES
                else instance_from_dict
            )
            return await endpoint(_parse_body(body), parse_instance)
        finally:
            self._inflight -= 1

    def _parse_instance(self, document: Mapping[str, Any]) -> tuple[Database, FDSet]:
        """:func:`~repro.io.instance_from_dict`, memoized on the document's text.

        The key is the document's ``json.dumps`` in its own key order,
        which tells apart every value the parser sees (``1``, ``1.0`` and
        ``true`` included), so a hit returns exactly the pair a parse
        would.  A document that fails to parse is not stored, so every
        validation error still comes from the parser.  Only bodies of at
        most :data:`~repro.service.cache.INSTANCE_MEMO_MAX_BYTES` come
        here, and the memo keeps at most ``max_sessions`` pairs.
        """
        text = json.dumps(document)
        parsed = self._instances.get(text)
        if parsed is None:
            parsed = instance_from_dict(document)
            self._instances.put(text, parsed)
        return parsed

    # -- monitoring endpoints ----------------------------------------------------------

    async def _healthz(self) -> dict:
        # Degraded storage does not fail liveness: the whole point of
        # degraded mode is that the service keeps answering (by
        # recomputing) while the disk is broken.  Sessions live in the
        # shards; a short poll keeps the probe fast while a worker
        # restarts (its sessions go unreported) and leaves the gauges'
        # snapshot alone.
        totals = aggregate_shard_stats(
            await self.shards.stats(timeout=_HEALTHZ_POLL_SECONDS)
        )
        storage = self.registry.storage.snapshot()
        return {
            "status": "ok",
            "sessions": totals["registry"]["sessions"],
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "storage": {
                "degraded": bool(self._storage_degraded()),
                "store_errors": storage["total"],
                "last_error": storage["last_error"],
            },
            "workers": self._workers_document(),
        }

    def _workers_document(self) -> dict:
        """Shard count + per-shard liveness (no IPC: ``Process.is_alive``)."""
        count = self.shards.workers
        return {
            "count": count,
            "alive": [self.shards.alive(shard) for shard in range(count)],
        }

    async def _refresh_shards(self) -> list[dict | None]:
        """Poll the shards and cache their stat documents (the cached
        snapshot also feeds the labeled shard gauges)."""
        self._shard_snapshot = await self.shards.stats()
        self._registry_counters.update(self._shard_snapshot)
        return self._shard_snapshot

    async def _stats(self) -> dict:
        per_shard = await self._refresh_shards()
        # The sum contract is pinned by tests over aggregate_shard_stats;
        # the server's registry supplies configuration and, in-process,
        # its per-group rows.
        totals = aggregate_shard_stats(per_shard)
        registry_stats = {**self.registry.stats(), **totals["registry"]}
        # "degraded" is a level, not a counter — fold with OR, not sum.
        registry_stats["degraded"] = bool(self._storage_degraded())
        document = {
            "requests_served": self.requests_served,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "default_budget": self.default_budget,
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "registry": registry_stats,
            "batching": {
                "max_queue": self.max_queue,
                "max_pending": self.max_pending,
                **totals["batching"],
            },
            "answer_cache": (
                self.answer_cache.stats() if self.answer_cache else None
            ),
            "workers": self._workers_document(),
        }
        if self.workers:
            # Per-process breakdown; a local shard's document is the
            # top-level sections themselves.
            document["shards"] = [entry or {} for entry in per_shard]
        if self.fault_injection:
            document["faults"] = dict(self._faults)
        return document

    async def _metrics_endpoint(self) -> _Response:
        await self._refresh_shards()
        return _Response(
            200,
            self.metrics.render().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- fault injection (test surface) ------------------------------------------------

    def _apply_disk_faults(self) -> None:
        """Install (or clear) the fsfault shim matching ``self._faults``.

        One combined plan: ``disk_enospc`` fails every store write with
        ``ENOSPC``; ``disk_bitflip`` flips one seeded bit per store read.
        Both off restores the passthrough shim.
        """
        enospc = bool(self._faults["disk_enospc"])
        bitflip = int(self._faults["disk_bitflip"])
        if not enospc and not bitflip:
            _fsfault.reset()
            return
        _fsfault.install(
            _fsfault.FaultyOps(
                _fsfault.FaultPlan(
                    write_enospc=enospc,
                    bitflip_seed=bitflip if bitflip else None,
                )
            )
        )

    async def _fault(self, document: Mapping[str, Any]) -> dict:
        """Inject operational faults (only routed with ``fault_injection``)."""
        report: dict[str, Any] = {}
        if document.get("reset"):
            self._faults["slow_seconds"] = 0.0
            self._faults["disk_enospc"] = 0.0
            self._faults["disk_bitflip"] = 0.0
            self._apply_disk_faults()
            report["reset"] = True
        if "slow_seconds" in document:
            value = document["slow_seconds"]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise _BadRequest("'slow_seconds' must be a non-negative number")
            self._faults["slow_seconds"] = float(value)
        disk_faults = [key for key in _DISK_FAULTS if key in document]
        if disk_faults and self.workers:
            # The shim and the spill/drop hooks act on this process; with
            # worker processes the store and the warm sessions live in the
            # workers, where they would silently miss.
            raise _BadRequest(
                f"disk faults ({', '.join(disk_faults)}) require in-process "
                "mode (no --workers)"
            )
        if "disk_enospc" in document or "disk_bitflip" in document:
            if "disk_enospc" in document:
                value = document["disk_enospc"]
                if not isinstance(value, bool):
                    raise _BadRequest("'disk_enospc' must be a boolean")
                self._faults["disk_enospc"] = float(value)
            if "disk_bitflip" in document:
                value = document["disk_bitflip"]
                if value is True:
                    value = 1
                if value is False:
                    value = 0
                if not isinstance(value, int) or value < 0:
                    raise _BadRequest(
                        "'disk_bitflip' must be a boolean or a positive "
                        "integer seed (0/false clears it)"
                    )
                self._faults["disk_bitflip"] = float(value)
            self._apply_disk_faults()
        if document.get("poison_cache"):
            if self.answer_cache is None:
                raise _BadRequest("answer cache is disabled; nothing to poison")
            count = document.get("poison_count")
            if count is not None and (not isinstance(count, int) or count < 0):
                raise _BadRequest("'poison_count' must be a non-negative integer")
            report["poisoned_entries"] = self.answer_cache.poison(count)
        if "kill_worker" in document:
            shard = document["kill_worker"]
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise _BadRequest("'kill_worker' must be a shard index")
            try:
                report["killed_pid"] = self.shards.kill(shard)
            except ValueError as error:
                raise _BadRequest(f"'kill_worker': {error}") from None
            report["killed_worker"] = shard
        if document.get("spill_sessions"):
            # Exercise the store now (after any disk-fault change above),
            # so injected failures — and recovery — surface immediately
            # instead of waiting for organic eviction traffic.  Spilling
            # walks session locks: keep it off the event loop.
            report["spilled_sessions"] = await asyncio.get_running_loop(
            ).run_in_executor(None, self.registry.spill_all)
        if document.get("drop_sessions"):
            # Force the next request per group to re-admit from disk
            # (warm-start reads then run under any injected read fault).
            report["dropped_sessions"] = self.registry.drop_sessions()
        report["faults"] = dict(self._faults)
        return report

    # -- estimation endpoints ----------------------------------------------------------

    def _budget_for(self, document: Mapping[str, Any]) -> tuple[float | None, int]:
        """``(budget seconds or None, status on expiry)`` for a document.

        A client-supplied ``budget_seconds`` expires as 408 (the client
        asked for the deadline); the server-wide ``default_budget``
        expires as 504.  A client budget is capped by the server's.
        """
        raw = document.get("budget_seconds")
        if raw is None:
            return self.default_budget, 504
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
            raise _BadRequest("'budget_seconds' must be a positive number")
        budget = float(raw)
        if self.default_budget is not None:
            budget = min(budget, self.default_budget)
        return budget, 408

    async def _with_budget(self, document: Mapping[str, Any], work):
        """Run ``work()`` under the document's deadline budget.

        Expiry cancels the awaited work — queued micro-batcher waiters
        are dropped before execution (see ``batching._pop_round``), so a
        timed-out request stops consuming capacity.
        """
        budget, status = self._budget_for(document)
        delay = self._faults["slow_seconds"]

        async def timed():
            if delay:
                await asyncio.sleep(delay)
            return await work()

        if budget is None:
            return await timed()
        try:
            return await asyncio.wait_for(timed(), budget)
        except asyncio.TimeoutError:
            self._m_rejected.labels("deadline").inc()
            raise _DeadlineExceeded(status, budget) from None

    async def _estimate(
        self, document: Mapping[str, Any], parse_instance: Callable
    ) -> dict:
        requests, mode = _estimate_requests(document, parse_instance)
        rows = await self._with_budget(
            document, lambda: self._run_rows(requests, mode)
        )
        return {"mode": mode, "count": len(rows), "results": rows}

    async def _answers(
        self, document: Mapping[str, Any], parse_instance: Callable
    ) -> dict:
        if "answer" in document:
            raise _BadRequest(
                "/answers enumerates all candidate tuples; "
                "use /estimate to score one answer"
            )
        requests, mode = _single_request(
            document, parse_instance, force_all_answers=True
        )
        rows = await self._with_budget(
            document, lambda: self._run_rows(requests, mode)
        )
        query = requests[0].query if requests else document.get("query")
        generator = requests[0].generator.name if requests else None
        return {
            "query": str(query),
            "generator": generator,
            "mode": mode,
            "answers": rows,
        }

    # -- execution ---------------------------------------------------------------------

    def _cache_key(self, request: BatchRequest, mode: str) -> tuple:
        """Everything that determines a served row, hashable.

        The registry key names the sampling law, which generators share;
        the row also carries the generator's own name, so it is keyed too.
        """
        return (
            self.registry.key_for(
                request.database, request.constraints, request.generator
            ),
            request.generator.name,
            request.query,
            request.answer,
            request.epsilon,
            request.delta,
            request.method,
            request.max_samples,
            request.label,
            mode,
        )

    async def _run_rows(
        self, requests: list[BatchRequest], mode: str
    ) -> list[dict]:
        """Serve every request as a JSON row: answer cache, then batcher."""
        rows: list[dict | None] = [None] * len(requests)
        use_cache = self.answer_cache is not None and self.registry.seed is not None
        keys: list[tuple | None] = [None] * len(requests)
        pending: list[tuple[int, BatchRequest]] = []
        if use_cache:
            for position, request in enumerate(requests):
                keys[position] = self._cache_key(request, mode)
                cached = self.answer_cache.get(keys[position])
                if cached is not None:
                    rows[position] = cached
                else:
                    pending.append((position, request))
        else:
            pending = list(enumerate(requests))
        if pending:
            outcomes = await self._run([request for _, request in pending], mode)
            for (position, _), outcome in zip(pending, outcomes):
                row = batch_result_to_row(outcome)
                rows[position] = row
                if use_cache:
                    self.answer_cache.put(keys[position], row)
        self.requests_served += len(requests)
        return rows  # type: ignore[return-value]  # every slot is filled above

    async def _run(
        self, requests: list[BatchRequest], mode: str
    ) -> list[BatchResult]:
        """Fan one parsed request list out per group and reassemble.

        Each group (a sampling law) is one ``submit`` to the shards, keyed
        by its registry key (coalescing happens in the owning shard's
        micro-batcher); results come back in request order.
        """
        groups = group_positions(requests)
        chunks = await asyncio.gather(
            *(
                self.shards.submit(
                    self.registry.key_for(*group),
                    *group,
                    [requests[p] for p in positions],
                    mode,
                )
                for group, positions in groups.items()
            )
        )
        return in_request_order(groups, chunks, len(requests))


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    seed: int | None = None,
    cache_dir: str | None = None,
    max_sessions: int | None = None,
    max_queue: int | None = None,
    max_pending: int | None = None,
    max_inflight: int | None = None,
    default_budget: float | None = None,
    answer_cache_size: int | None = None,
    fault_injection: bool = False,
    workers: int | None = None,
) -> int:
    """Run the estimation service until interrupted (the CLI entry point).

    Builds a :class:`SessionRegistry` from the arguments, binds, prints
    the served URL to stderr, and blocks.  ``workers=N`` runs the
    sharded multi-process plane (one warm registry per shard; see
    :class:`EstimationServer`).  SIGTERM and SIGINT both shut down
    gracefully: queued batch waiters are drained (or failed with a clean
    503 past the drain timeout) and warm sessions are spilled to the
    cache store before the loop closes — in both single-process and
    sharded modes.  Returns ``0`` on clean shutdown.
    """
    # A mixed IO/CPU process: under a request flood the event-loop
    # thread would otherwise keep the GIL for the default 5 ms switch
    # interval while an executor thread sits mid-batch — measured to
    # inflate a ~0.1 ms batch to ~3 ms wall and admitted tail latency
    # by 10x.  A finer interval trades a sliver of throughput for
    # bounded tails; process-wide, so set only in this CLI entry point.
    sys.setswitchinterval(0.001)
    registry = SessionRegistry(
        seed=seed,
        cache_dir=cache_dir,
        max_sessions=DEFAULT_MAX_SESSIONS if max_sessions is None else max_sessions,
    )

    async def _main() -> None:
        server = EstimationServer(
            registry,
            host=host,
            port=port,
            max_queue=max_queue,
            max_pending=max_pending,
            max_inflight=max_inflight,
            default_budget=default_budget,
            answer_cache_size=(
                DEFAULT_ANSWER_CACHE_SIZE
                if answer_cache_size is None
                else answer_cache_size
            ),
            fault_injection=fault_injection,
            workers=workers,
        )
        bound_host, bound_port = await server.start()
        print(
            f"repro estimation service on http://{bound_host}:{bound_port} "
            f"(seed={seed}, "
            f"cache_dir={cache_dir}, max_sessions={registry.max_sessions}, "
            f"workers={server.workers or 1})",
            file=sys.stderr,
            flush=True,
        )
        # Graceful shutdown: both signals set the stop event, letting
        # stop() drain queued waiters instead of the loop tearing down
        # underneath them (the pre-fix silent-drop bug).
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[int] = []
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-posix loops fall back to KeyboardInterrupt
        try:
            await stop_event.wait()
            print("shutting down", file=sys.stderr, flush=True)
        except asyncio.CancelledError:
            pass
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


class BackgroundServer:
    """An :class:`EstimationServer` on a daemon thread, for embedding.

    The harness tests, the E27/E29 benches and the CI smoke jobs all use
    this: ``with BackgroundServer(seed=7) as server:`` yields a bound
    server (ephemeral port by default) whose :attr:`url` a
    :class:`~repro.service.client.ServiceClient` can hit from any
    thread; exiting stops the loop and spills warm sessions.
    ``server_options`` forwards hardening knobs (``max_queue``,
    ``max_pending``, ``default_budget``, ``answer_cache_size``,
    ``fault_injection``, ``workers`` — sharded mode works embedded too)
    to the :class:`EstimationServer`.
    """

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        server_options: Mapping[str, Any] | None = None,
        **registry_options,
    ):
        if registry is not None and registry_options:
            raise TypeError("pass a registry or registry options, not both")
        self.registry = (
            registry if registry is not None else SessionRegistry(**registry_options)
        )
        self.server = EstimationServer(
            self.registry, host=host, port=port, **dict(server_options or {})
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "EstimationServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.server

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            # Captured, not swallowed: ``__enter__`` re-raises this on
            # the entering thread (see ``raise self._startup_error``).
            except BaseException as error:  # repro-lint: disable=RL003
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.server.stop()

        asyncio.run(_main())
