"""Closed-loop, fault-injecting load-test harness for the service plane.

The service plane makes operational claims — bounded queues reject with
``429`` + ``Retry-After`` instead of collapsing, deadline budgets cancel
partial work, the answer cache can be poisoned but never lies, and every
admitted response stays bit-identical to an offline
``batch_estimate(seed=...)`` run.  This module *verifies those claims
under load*, the way the calibration audit (PR 6) verifies the
statistical ones: empirically, against a real server, with the faults
actually injected.

The harness (:func:`run_loadtest`) drives a server through phases:

1. **warm** — one sequential pass over the request mix populates the
   answer cache and checks bit-identity cold.
2. **baseline** — a single closed-loop client measures the unloaded
   latency distribution (always cache-missing, so it measures compute).
3. **saturation** — a modest swarm measures the admitted-throughput
   ceiling (the "saturation rps" the E29 bench scales from).
4. **overload** — a swarm sized past the admission bounds; asserts
   backpressure engages (429s with ``Retry-After``), admitted p99 stays
   within ``p99_degradation_limit`` × the unloaded p99, and no request
   is dropped with a connection reset.
5. **cache** — the swarm replays *fixed* labels, so traffic collapses
   onto the answer cache; asserts hits accrue.
6. **faults** — the storm continues while faults are injected through
   ``POST /_fault`` and raw sockets: slow handlers (plus client budgets
   → ``408``), poisoned cache entries (must be detected and recomputed,
   never served), malformed/truncated bodies mid-burst, and optionally
   a ``SIGKILL``-ed server process that is restarted mid-storm.
7. **verify** — a final sequential pass re-checks bit-identity against
   the offline rows (after the poisoning!) and that ``/metrics``
   counters were monotone across every scrape taken during the run.

Requests are made cache-hitting or cache-missing *by label*: the row
label participates in the answer-cache key (it is embedded in the served
row), so a unique label per call forces the full batcher path while a
fixed label replays the cache.  Bit-identity holds either way because
group seeds derive from instance content, never from labels.

Everything here is stdlib-only and runs against either a subprocess
server (:class:`ServerProcess`, the realistic configuration) or any
``base_url`` the caller supplies (e.g. an in-process
:class:`~repro.service.server.BackgroundServer` for fast tier-1 tests).
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..chains.generators import M_UR, M_US
from ..core.queries import atom, cq, var
from ..engine.batch import BatchRequest, batch_estimate
from ..io import batch_result_to_row, format_query
from ..workloads import figure2_database
from .client import ServiceClient, ServiceClientError

__all__ = [
    "LoadTestConfig",
    "LoadTestReport",
    "ServerProcess",
    "run_loadtest",
    "format_report",
]


@dataclass
class LoadTestConfig:
    """Knobs for one :func:`run_loadtest` run.

    The defaults are sized for the CI smoke job (~20 s end to end);
    the tier-2 saturation leg and the E29 bench scale the phase
    durations and swarm sizes up and enable every fault.
    """

    seed: int = 7
    epsilon: float = 0.5
    delta: float = 0.2
    baseline_seconds: float = 2.0
    saturation_seconds: float = 2.0
    overload_seconds: float = 3.0
    cache_seconds: float = 1.0
    fault_seconds: float = 3.0
    saturation_clients: int = 4
    overload_clients: int = 24
    # Server admission bounds: deliberately far below overload_clients
    # so the overload phase *must* trigger backpressure — and, by
    # Little's law, so admitted requests keep bounded queueing delay
    # (closed-loop in-system admitted work == max_inflight, so admitted
    # latency ≈ max_inflight × per-request service time; one slot keeps
    # admitted latency at the unloaded service time, which is also all
    # the parallelism a small CI box has to offer).
    max_queue: int | None = None
    max_pending: int | None = 8
    max_inflight: int | None = 1
    default_budget: float = 30.0
    answer_cache_size: int = 1024
    # Faults.
    inject_slow: bool = True
    slow_seconds: float = 0.2
    budget_seconds: float = 0.05
    inject_poison: bool = True
    inject_malformed: bool = True
    inject_kill: bool = False
    #: SIGKILL one shard worker mid-storm via ``POST /_fault`` (sharded
    #: servers only — requires ``workers >= 1``).  Unlike
    #: :attr:`inject_kill` the router stays up, so the respawn must be
    #: *transparent*: no transport errors, no 5xx, bit-identical rows.
    inject_worker_kill: bool = False
    #: Break the disk mid-storm via ``POST /_fault``: every store write
    #: fails with ENOSPC and store reads come back with one flipped bit,
    #: exercised immediately through spill/drop/re-admission.  The server
    #: must degrade (``repro_degraded_mode`` high, store errors
    #: accounted), keep answering with zero 5xx and zero bit-identity
    #: drift, and recover once the fault clears.  Requires an in-process
    #: store (``workers == 0``); the owned server gets a scratch
    #: ``cache_dir`` automatically.
    inject_disk_fault: bool = False
    #: Cache directory for the owned server (``None`` = no store, or a
    #: private temporary directory when ``inject_disk_fault`` needs one).
    cache_dir: str | None = None
    #: Shard worker processes for the owned server (``0`` = in-process
    #: single registry, exactly the pre-sharding plane).
    workers: int = 0
    # Degradation bound asserted on the (fault-free) overload phase.
    check_p99: bool = True
    p99_degradation_limit: float = 5.0
    #: How long a swarm client parks after a 429 before retrying.  The
    #: protocol answer is "the Retry-After hint", but that is whole
    #: seconds — honoring it literally would idle the swarm; a short
    #: bounded backoff keeps the offered load far above saturation
    #: while still behaving like a well-mannered client.
    reject_backoff_seconds: float = 0.05
    metrics_scrape_interval: float = 0.25
    request_timeout: float = 15.0


@dataclass
class LoadTestReport:
    """What one run measured, and every invariant it violated."""

    config: dict
    #: p99 latency of admitted ``/estimate`` requests, interpolated from
    #: the server's own ``repro_request_seconds`` histogram (the
    #: ``status="200"`` series) diffed across the phase.  Server-side
    #: numbers are the scored ones: the closed-loop swarm runs dozens of
    #: threads in one Python process, so client-observed latency
    #: conflates harness GIL contention with server behavior.  The
    #: client-observed percentiles ride along as ``*_client`` fields.
    unloaded_p99: float = 0.0
    unloaded_p99_client: float = 0.0
    saturation_rps: float = 0.0
    overload_admitted_p99: float = 0.0
    overload_admitted_p99_client: float = 0.0
    overload_admitted: int = 0
    overload_rejected: int = 0
    overload_offered_rps: float = 0.0
    cache_hits: int = 0
    deadline_hits: int = 0
    poisoned_detected: int = 0
    malformed_probes: int = 0
    transport_errors: int = 0
    bit_identity_checked: int = 0
    bit_identity_failures: int = 0
    rejected_missing_retry_after: int = 0
    worker_kills: int = 0
    worker_restarts: int = 0
    #: ``repro_degraded_mode`` sampled right after the disk fault went in
    #: (must be 1) and after it cleared (must be back to 0).
    degraded_peak: int = 0
    degraded_final: int = 0
    store_errors: int = 0
    metrics_scrapes: int = 0
    metrics_violations: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    final_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every asserted degradation invariant held."""
        return not self.failures

    def to_dict(self) -> dict:
        """The report as one JSON-native document."""
        return {
            "ok": self.ok,
            "config": self.config,
            "unloaded_p99": self.unloaded_p99,
            "unloaded_p99_client": self.unloaded_p99_client,
            "saturation_rps": self.saturation_rps,
            "overload_admitted_p99": self.overload_admitted_p99,
            "overload_admitted_p99_client": self.overload_admitted_p99_client,
            "overload_admitted": self.overload_admitted,
            "overload_rejected": self.overload_rejected,
            "overload_offered_rps": self.overload_offered_rps,
            "cache_hits": self.cache_hits,
            "deadline_hits": self.deadline_hits,
            "poisoned_detected": self.poisoned_detected,
            "malformed_probes": self.malformed_probes,
            "transport_errors": self.transport_errors,
            "bit_identity_checked": self.bit_identity_checked,
            "bit_identity_failures": self.bit_identity_failures,
            "rejected_missing_retry_after": self.rejected_missing_retry_after,
            "worker_kills": self.worker_kills,
            "worker_restarts": self.worker_restarts,
            "degraded_peak": self.degraded_peak,
            "degraded_final": self.degraded_final,
            "store_errors": self.store_errors,
            "metrics_scrapes": self.metrics_scrapes,
            "metrics_violations": self.metrics_violations,
            "failures": self.failures,
        }


def format_report(report: LoadTestReport) -> str:
    """A human-readable summary for the ``loadtest`` CLI and the bench."""
    lines = [
        "loadtest " + ("PASS" if report.ok else "FAIL"),
        (
            f"  unloaded p99        {report.unloaded_p99 * 1000:.1f} ms server-side "
            f"({report.unloaded_p99_client * 1000:.1f} ms client-observed)"
        ),
        f"  saturation          {report.saturation_rps:.1f} admitted rps",
        (
            f"  overload            {report.overload_admitted} admitted "
            f"(p99 {report.overload_admitted_p99 * 1000:.1f} ms server-side, "
            f"{report.overload_admitted_p99_client * 1000:.1f} ms client-observed), "
            f"{report.overload_rejected} rejected 429, "
            f"{report.overload_offered_rps:.1f} offered rps"
        ),
        f"  cache               {report.cache_hits} hits",
        f"  deadlines           {report.deadline_hits} (408/504)",
        f"  poisoned detected   {report.poisoned_detected}",
        f"  malformed probes    {report.malformed_probes}",
        f"  transport errors    {report.transport_errors}",
        (
            f"  bit identity        {report.bit_identity_checked} checked, "
            f"{report.bit_identity_failures} drifted"
        ),
        f"  metrics             {report.metrics_scrapes} scrapes, "
        f"{len(report.metrics_violations)} monotonicity violations",
    ]
    if report.worker_kills:
        lines.insert(
            -1,
            f"  worker kills        {report.worker_kills} injected, "
            f"{report.worker_restarts} respawns observed",
        )
    if report.config.get("inject_disk_fault"):
        lines.insert(
            -1,
            f"  disk faults         degraded {report.degraded_peak} -> "
            f"{report.degraded_final}, {report.store_errors} store errors accounted",
        )
    for failure in report.failures:
        lines.append(f"  FAIL: {failure}")
    return "\n".join(lines)


# -- the server subprocess -----------------------------------------------------------------


_URL_PATTERN = re.compile(r"on (http://[0-9.]+:[0-9]+)")


def _prioritize() -> None:  # pragma: no cover - runs in the child pre-exec
    """Raise the server subprocess's scheduling priority when permitted.

    The harness co-locates the load generator and the system under test
    on one machine; on small (often single-core) CI boxes the swarm's
    spinning client threads would otherwise starve the server process,
    and the measured "server" latency would mostly be kernel scheduling
    quanta.  Prioritizing the system under test is the standard fix;
    silently skipped without the privilege.
    """
    try:
        os.nice(-10)
    except (OSError, PermissionError):
        pass


class ServerProcess:
    """A real ``python -m repro serve`` subprocess, killable mid-burst.

    Starts the service on an ephemeral port with fault injection
    enabled, parses the served URL off stderr, and supports the
    harness's killed-worker fault: :meth:`kill` SIGKILLs the process
    (clients see hard connection errors, exactly like a crashed
    production worker) and :meth:`restart` brings a fresh process back
    *on the same port* — served answers must come back bit-identical,
    because determinism is content-derived, not process state.
    """

    def __init__(
        self,
        *,
        seed: int = 7,
        max_queue: int | None = None,
        max_pending: int | None = None,
        max_inflight: int | None = None,
        default_budget: float | None = None,
        answer_cache_size: int | None = None,
        fault_injection: bool = True,
        workers: int = 0,
        cache_dir: str | None = None,
        startup_timeout: float = 60.0,
    ):
        self.seed = seed
        self.max_queue = max_queue
        self.max_pending = max_pending
        self.max_inflight = max_inflight
        self.default_budget = default_budget
        self.answer_cache_size = answer_cache_size
        self.fault_injection = fault_injection
        self.workers = workers
        self.cache_dir = cache_dir
        self.startup_timeout = startup_timeout
        self.port = 0
        self.url: str | None = None
        self._process: subprocess.Popen | None = None
        self._drain: threading.Thread | None = None

    def _command(self, port: int) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--seed",
            str(self.seed),
        ]
        if self.max_queue is not None:
            command += ["--max-queue", str(self.max_queue)]
        if self.max_pending is not None:
            command += ["--max-pending", str(self.max_pending)]
        if self.max_inflight is not None:
            command += ["--max-inflight", str(self.max_inflight)]
        if self.default_budget is not None:
            command += ["--default-budget", str(self.default_budget)]
        if self.answer_cache_size is not None:
            command += ["--answer-cache-size", str(self.answer_cache_size)]
        if self.fault_injection:
            command += ["--enable-fault-injection"]
        if self.workers:
            command += ["--workers", str(self.workers)]
        if self.cache_dir is not None:
            command += ["--cache-dir", self.cache_dir]
        return command

    def start(self, port: int = 0) -> str:
        """Spawn the subprocess and block until it reports its URL."""
        if self._process is not None and self._process.poll() is None:
            raise RuntimeError("server already running")
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self._process = subprocess.Popen(
            self._command(port),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            preexec_fn=_prioritize,
        )
        url: list[str] = []
        ready = threading.Event()

        def drain(stream):
            for raw in stream:
                if not ready.is_set():
                    match = _URL_PATTERN.search(raw.decode("utf-8", "replace"))
                    if match:
                        url.append(match.group(1))
                        ready.set()
            ready.set()  # EOF: startup failed; unblock the waiter

        self._drain = threading.Thread(
            target=drain, args=(self._process.stderr,), daemon=True
        )
        self._drain.start()
        if not ready.wait(self.startup_timeout) or not url:
            self.stop()
            raise RuntimeError("service subprocess did not report a URL")
        self.url = url[0]
        self.port = int(self.url.rsplit(":", 1)[1])
        return self.url

    def kill(self) -> None:
        """SIGKILL the server — the harness's killed-worker fault."""
        if self._process is not None:
            self._process.kill()
            self._process.wait(timeout=30)

    def restart(self) -> str:
        """Bring a fresh process back on the same port."""
        self.kill()
        deadline = time.monotonic() + self.startup_timeout
        # The old socket may linger briefly; retry the bind via respawn.
        while True:
            try:
                return self.start(self.port)
            except RuntimeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def stop(self) -> None:
        if self._process is not None:
            self._process.terminate()
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck process
                self._process.kill()
                self._process.wait(timeout=30)

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- the request mix -----------------------------------------------------------------------


@dataclass
class _MixItem:
    request: BatchRequest
    expected: dict


def _build_mix(config: LoadTestConfig) -> list[_MixItem]:
    """The Figure 2 request mix plus its offline ground-truth rows."""
    database, constraints = figure2_database()
    x, y = var("x"), var("y")
    query = cq((x,), (atom("R", x, y),))
    requests = [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=config.epsilon,
            delta=config.delta,
            label=f"load-{generator.name}-{position}",
        )
        for generator in (M_UR, M_US)
        for position, candidate in enumerate(sorted(query.answers(database), key=repr))
    ]
    offline = batch_estimate(requests, seed=config.seed)
    return [
        _MixItem(request=request, expected=batch_result_to_row(outcome))
        for request, outcome in zip(requests, offline)
    ]


def _expected_row(item: _MixItem, label: str) -> dict:
    """The offline row under a swarm label (labels never affect math)."""
    if label == item.request.label:
        return item.expected
    return {**item.expected, "instance": label}


# -- sampling ------------------------------------------------------------------------------


@dataclass
class _Sample:
    phase: str
    kind: str  # admitted | rejected | deadline | transport | http_error
    seconds: float
    status: int
    retry_after: float | None = None


class _Recorder:
    """Thread-safe accumulation of samples and bit-identity mismatches."""

    def __init__(self):
        self._lock = threading.Lock()
        self.samples: list[_Sample] = []
        self.mismatches: list[str] = []
        self.checked = 0

    def add(self, sample: _Sample) -> None:
        with self._lock:
            self.samples.append(sample)

    def check(self, phase: str, label: str, served: dict, expected: dict) -> None:
        with self._lock:
            self.checked += 1
            if served != expected:
                self.mismatches.append(
                    f"{phase}/{label}: served {json.dumps(served, sort_keys=True)} "
                    f"!= offline {json.dumps(expected, sort_keys=True)}"
                )

    def phase_samples(self, phase: str) -> list[_Sample]:
        with self._lock:
            return [s for s in self.samples if s.phase == phase]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    position = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))
    return ordered[position]


def _admitted_latency_buckets(snapshot: Mapping[str, float]) -> dict[float, float]:
    """Cumulative bucket counts of the admitted (status 200) ``/estimate``
    latency series from one parsed ``/metrics`` snapshot."""
    buckets: dict[float, float] = {}
    prefix = "repro_request_seconds_bucket{"
    for key, value in snapshot.items():
        if not key.startswith(prefix):
            continue
        labels = dict(
            piece.split("=", 1) for piece in key[len(prefix):-1].split(",")
        )
        if labels.get("endpoint") != '"/estimate"' or labels.get("status") != '"200"':
            continue
        bound = labels.get("le", "").strip('"')
        buckets[float("inf") if bound == "+Inf" else float(bound)] = value
    return buckets


def _histogram_p99(
    before: Mapping[str, float], after: Mapping[str, float], q: float = 0.99
) -> float:
    """The interpolated ``q``-quantile of admitted ``/estimate`` latency
    *between two scrapes*, from the server's cumulative histogram.

    This is the latency the server actually delivered during the phase,
    uncontaminated by the harness's own thread-scheduling noise (the
    scored p99s come from here; client-observed values are reported
    alongside for comparison).
    """
    counts_before = _admitted_latency_buckets(before)
    counts_after = _admitted_latency_buckets(after)
    bounds = sorted(counts_after)
    if not bounds:
        return 0.0
    deltas = [counts_after[b] - counts_before.get(b, 0.0) for b in bounds]
    total = deltas[-1]
    if total <= 0:
        return 0.0
    target = q * total
    previous_bound, previous_delta = 0.0, 0.0
    for bound, delta in zip(bounds, deltas):
        if delta >= target:
            if bound == float("inf"):
                return previous_bound  # mass beyond the largest finite bound
            fraction = (target - previous_delta) / max(delta - previous_delta, 1e-9)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_delta = bound, delta
    return previous_bound


def _call_item(
    client: ServiceClient,
    item: _MixItem,
    label: str,
    *,
    phase: str,
    recorder: _Recorder,
    budget_seconds: float | None = None,
) -> str:
    """One closed-loop request: call, classify, verify bit-identity.

    Returns the sample kind so callers can back off after rejections.
    """
    request = item.request
    started = time.perf_counter()
    try:
        row = client.estimate(
            request.database,
            request.constraints,
            format_query(request.query),
            request.answer,
            generator=request.generator.name,
            epsilon=request.epsilon,
            delta=request.delta,
            label=label,
            budget_seconds=budget_seconds,
        )
    except ServiceClientError as error:
        elapsed = time.perf_counter() - started
        if error.status == 429:
            recorder.add(
                _Sample(phase, "rejected", elapsed, 429, error.retry_after)
            )
            return "rejected"
        if error.status in (408, 504):
            recorder.add(_Sample(phase, "deadline", elapsed, error.status))
            return "deadline"
        if error.status == 0:
            recorder.add(_Sample(phase, "transport", elapsed, 0))
            return "transport"
        recorder.add(_Sample(phase, "http_error", elapsed, error.status))
        return "http_error"
    elapsed = time.perf_counter() - started
    recorder.add(_Sample(phase, "admitted", elapsed, 200))
    recorder.check(phase, label, row, _expected_row(item, label))
    return "admitted"


def _swarm(
    url: str,
    mix: list[_MixItem],
    *,
    phase: str,
    clients: int,
    seconds: float,
    recorder: _Recorder,
    config: LoadTestConfig,
    unique_labels: bool,
    budget_every: int = 0,
) -> None:
    """A closed-loop swarm: each client issues its next request as soon
    as the previous one resolves (including fast 429s), for ``seconds``.

    ``unique_labels`` makes every call a guaranteed answer-cache miss
    (real compute through the batcher); fixed labels replay the cache.
    ``budget_every > 0`` attaches a tight client deadline budget to
    every N-th call (exercised during the slow-handler fault).
    """
    deadline = time.perf_counter() + seconds

    def run(worker: int) -> None:
        client = ServiceClient(url, timeout=config.request_timeout)
        turn = 0
        while time.perf_counter() < deadline:
            item = mix[(worker + turn) % len(mix)]
            label = (
                f"{item.request.label}:{phase}:{worker}:{turn}"
                if unique_labels
                else item.request.label
            )
            budget = (
                config.budget_seconds
                if budget_every and turn % budget_every == 0
                else None
            )
            kind = _call_item(
                client, item, label, phase=phase, recorder=recorder, budget_seconds=budget
            )
            # A rejected client backs off a beat instead of hammering —
            # enough to keep the swarm honest without idling it.
            if kind == "rejected" and config.reject_backoff_seconds > 0:
                time.sleep(config.reject_backoff_seconds)
            turn += 1
    threads = [
        threading.Thread(target=run, args=(worker,), daemon=True)
        for worker in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + config.request_timeout + 30)


# -- fault probes --------------------------------------------------------------------------

#: Raw byte payloads a hostile or broken client might send mid-burst.
_MALFORMED_PAYLOADS = (
    b"GARBAGE\r\n\r\n",
    b"POST /estimate HTTP/1.1\r\nContent-Length: 500000\r\n\r\n{\"truncated",
    b"POST /estimate HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
    b"POST /estimate HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    b"POST /estimate HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
    # Framings whose leftover body bytes a persistent connection would
    # otherwise parse as a second request: both are 400 + close.
    b"POST /estimate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"19\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
    b"POST /estimate HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 27\r\n\r\n"
    b"{}GET /healthz HTTP/1.1\r\n\r\n",
)


def _malformed_probes(url: str) -> int:
    """Fire raw malformed/truncated requests; returns how many were sent.

    The server's obligation is only to *survive* — respond with an
    error or drop the connection, never crash or wedge; the caller
    checks ``/healthz`` afterwards.
    """
    host, port_text = url.removeprefix("http://").split(":")
    sent = 0
    for payload in _MALFORMED_PAYLOADS:
        try:
            with socket.create_connection((host, int(port_text)), timeout=5) as raw:
                raw.sendall(payload)
                raw.settimeout(2)
                try:
                    raw.recv(4096)
                except (socket.timeout, ConnectionError):
                    pass
            sent += 1
        except OSError:  # pragma: no cover - probe could not connect
            pass
    return sent


class _MetricsScraper:
    """Scrapes ``/metrics`` on an interval; snapshots feed the
    monotonicity check (counters and histogram buckets must never
    decrease across scrapes, whatever the load does)."""

    def __init__(self, url: str, interval: float):
        self._client = ServiceClient(url, timeout=10.0)
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.snapshots: list[dict[str, float]] = []

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.snapshots.append(self._client.metrics())
            except ServiceClientError:
                pass  # a kill-fault window; monotonicity spans the gap
            self._stop.wait(self._interval)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> list[dict[str, float]]:
        self._stop.set()
        self._thread.join(timeout=30)
        return self.snapshots


def _monotone_series(key: str) -> bool:
    name = key.split("{", 1)[0]
    return name.endswith(("_total", "_bucket", "_count", "_sum"))


def monotonicity_violations(snapshots: list[dict[str, float]]) -> list[str]:
    """Counter/histogram series that *decreased* between two scrapes.

    A restart (the kill fault) legitimately resets counters to zero;
    scrape sequences are therefore split at points where the server's
    ``repro_uptime_seconds`` gauge went backwards, and monotonicity is
    asserted within each server lifetime.
    """
    violations: list[str] = []
    previous: dict[str, float] | None = None
    for snapshot in snapshots:
        if previous is not None:
            uptime = snapshot.get("repro_uptime_seconds")
            previous_uptime = previous.get("repro_uptime_seconds")
            if (
                uptime is not None
                and previous_uptime is not None
                and uptime < previous_uptime
            ):
                # Server restarted between scrapes: new lifetime, new zeroes.
                previous = snapshot
                continue
            violations.extend(
                f"{key}: {previous[key]} -> {value}"
                for key, value in snapshot.items()
                if _monotone_series(key) and key in previous and value < previous[key]
            )
        previous = snapshot
    return violations


# -- the harness ---------------------------------------------------------------------------


def run_loadtest(
    config: LoadTestConfig | None = None,
    *,
    base_url: str | None = None,
    server: ServerProcess | None = None,
) -> LoadTestReport:
    """Run every phase against a server and return the scored report.

    With neither ``base_url`` nor ``server``, a :class:`ServerProcess`
    is spawned from ``config`` (the realistic, subprocess-backed mode
    the CLI and the E29 bench use) and stopped afterwards.  Passing
    ``base_url`` targets an already-running server (the kill fault is
    then skipped — the harness does not own the process); passing
    ``server`` uses a caller-managed :class:`ServerProcess` without
    stopping it.
    """
    config = config or LoadTestConfig()
    if config.inject_disk_fault and config.workers:
        raise ValueError(
            "inject_disk_fault requires an in-process store (workers == 0): "
            "the /_fault disk shim is process-local and would miss the shards"
        )
    owned: ServerProcess | None = None
    scratch: tempfile.TemporaryDirectory | None = None
    if base_url is None and server is None:
        cache_dir = config.cache_dir
        if cache_dir is None and config.inject_disk_fault:
            # The disk-fault beat needs a store to break.
            scratch = tempfile.TemporaryDirectory(prefix="repro-loadtest-cache-")
            cache_dir = scratch.name
        owned = server = ServerProcess(
            seed=config.seed,
            max_queue=config.max_queue,
            max_pending=config.max_pending,
            max_inflight=config.max_inflight,
            default_budget=config.default_budget,
            answer_cache_size=config.answer_cache_size,
            fault_injection=True,
            workers=config.workers,
            cache_dir=cache_dir,
        )
        owned.start()
    if server is not None:
        base_url = server.url
    assert base_url is not None
    try:
        return _run_phases(config, base_url, server)
    finally:
        if owned is not None:
            owned.stop()
        if scratch is not None:
            scratch.cleanup()


def _run_phases(
    config: LoadTestConfig, url: str, server: ServerProcess | None
) -> LoadTestReport:
    report = LoadTestReport(config=dict(vars(config)))
    mix = _build_mix(config)
    recorder = _Recorder()
    control = ServiceClient(url, timeout=config.request_timeout)

    # Phase 1: warm — sequential, fixed labels, cold bit-identity.
    for item in mix:
        _call_item(control, item, item.request.label, phase="warm", recorder=recorder)

    scraper = _MetricsScraper(url, config.metrics_scrape_interval)
    scraper.start()

    # Phase 2: baseline — one client, unique labels (pure compute path).
    before_baseline = control.metrics()
    _swarm(
        url, mix, phase="baseline", clients=1, seconds=config.baseline_seconds,
        recorder=recorder, config=config, unique_labels=True,
    )
    after_baseline = control.metrics()
    report.unloaded_p99 = _histogram_p99(before_baseline, after_baseline)
    baseline = [s.seconds for s in recorder.phase_samples("baseline") if s.kind == "admitted"]
    report.unloaded_p99_client = _percentile(baseline, 0.99)

    # Phase 3: saturation — swarm below the admission bounds.
    _swarm(
        url, mix, phase="saturation", clients=config.saturation_clients,
        seconds=config.saturation_seconds, recorder=recorder, config=config,
        unique_labels=True,
    )
    admitted = [s for s in recorder.phase_samples("saturation") if s.kind == "admitted"]
    report.saturation_rps = len(admitted) / config.saturation_seconds

    # Phase 4: overload — swarm past the bounds; backpressure must engage.
    before_overload = control.metrics()
    _swarm(
        url, mix, phase="overload", clients=config.overload_clients,
        seconds=config.overload_seconds, recorder=recorder, config=config,
        unique_labels=True,
    )
    after_overload = control.metrics()
    overload = recorder.phase_samples("overload")
    overload_admitted = [s.seconds for s in overload if s.kind == "admitted"]
    report.overload_admitted = len(overload_admitted)
    report.overload_admitted_p99 = _histogram_p99(before_overload, after_overload)
    report.overload_admitted_p99_client = _percentile(overload_admitted, 0.99)
    rejected = [s for s in overload if s.kind == "rejected"]
    report.overload_rejected = len(rejected)
    report.overload_offered_rps = (
        len(overload_admitted) + len(rejected)
    ) / config.overload_seconds
    report.rejected_missing_retry_after = sum(
        1
        for s in recorder.samples
        if s.kind == "rejected" and s.retry_after is None
    )

    # Phase 5: cache — fixed labels collapse the swarm onto the cache.
    stats_before = control.stats()
    _swarm(
        url, mix, phase="cache", clients=config.saturation_clients,
        seconds=config.cache_seconds, recorder=recorder, config=config,
        unique_labels=False,
    )
    stats_after = control.stats()
    report.cache_hits = (stats_after.get("answer_cache") or {}).get("hits", 0) - (
        (stats_before.get("answer_cache") or {}).get("hits", 0)
    )

    # Phase 6: faults — the storm continues while faults go in.
    storm = threading.Thread(
        target=_swarm,
        kwargs=dict(
            url=url, mix=mix, phase="faults", clients=config.saturation_clients,
            seconds=config.fault_seconds, recorder=recorder, config=config,
            unique_labels=True,
            budget_every=3 if config.inject_slow else 0,
        ),
        daemon=True,
    )
    storm.start()
    beat = config.fault_seconds / 6
    time.sleep(beat)
    if config.inject_slow:
        control._call("POST", "/_fault", {"slow_seconds": config.slow_seconds})
    time.sleep(beat)
    if config.inject_poison:
        poison = control._call("POST", "/_fault", {"poison_cache": True})
        report.final_stats["poison_injected"] = poison.get("poisoned_entries", 0)
        # Read the poisoned entries back (fixed labels hit the cache) so
        # detection provably happens *before* any kill-fault restart
        # resets the server's counters.  The storm is still hammering the
        # admission bounds, so this pass must retry through 429s.
        retrying = ServiceClient(
            url, timeout=config.request_timeout, max_retries=50, retry_after_cap=0.1
        )
        for item in mix:
            _call_item(
                retrying, item, item.request.label, phase="faults", recorder=recorder
            )
        report.poisoned_detected = (
            control.stats().get("answer_cache") or {}
        ).get("poisoned", 0)
    if config.inject_malformed:
        report.malformed_probes = _malformed_probes(url)
    if config.inject_worker_kill:
        # The router survives; the shard respawns.  Unlike the whole-
        # process kill below, the storm keeps talking to the same
        # listener throughout, so this fault must be invisible to
        # clients — _score asserts the respawn happened and the usual
        # transport/bit-identity invariants catch any leakage.
        try:
            killed = control._call("POST", "/_fault", {"kill_worker": 0})
        except ServiceClientError as error:
            report.failures.append(f"worker-kill fault was rejected: {error}")
        else:
            if killed.get("killed_pid"):
                report.worker_kills += 1
    if config.inject_disk_fault:
        # Seed the store with clean spills, then break the disk: writes
        # fail with ENOSPC, reads flip one bit, and sessions are dropped
        # so re-admissions hit both — the server must enter degraded
        # mode while keeping answers clean (the usual 5xx and
        # bit-identity invariants stay armed throughout).
        control._call("POST", "/_fault", {"spill_sessions": True})
        faulted = control._call(
            "POST",
            "/_fault",
            {
                "disk_enospc": True,
                "disk_bitflip": config.seed + 1,
                "drop_sessions": True,
            },
        )
        report.final_stats["disk_fault"] = faulted
        # Deterministic probe (the storm races): a unique-label request
        # misses the answer cache, re-admits its session, and reads the
        # bitflipped entry — a corrupt load served by recompute.  The
        # recomputed session redraws the samples the damaged entry held
        # (an entry is only its sample prefix), so it is dirty and the
        # spill that follows hits the injected ENOSPC.  Both must trip
        # the degraded gauge.
        retrying = ServiceClient(
            url, timeout=config.request_timeout, max_retries=50, retry_after_cap=0.1
        )
        _call_item(
            retrying,
            mix[0],
            f"{mix[0].request.label}:disk-fault-probe",
            phase="faults",
            recorder=recorder,
        )
        control._call("POST", "/_fault", {"spill_sessions": True})
        report.degraded_peak = int(
            control.metrics().get("repro_degraded_mode", 0)
        )
    time.sleep(beat)
    if config.inject_kill and server is not None:
        server.restart()
    time.sleep(beat)
    if config.inject_slow:
        control._call("POST", "/_fault", {"reset": True})
    if config.inject_disk_fault:
        # Heal the disk and exercise the store again: the next spill
        # succeeds, so degraded mode must clear (level-triggered).
        control._call(
            "POST",
            "/_fault",
            {"disk_enospc": False, "disk_bitflip": 0, "spill_sessions": True},
        )
        report.degraded_final = int(
            control.metrics().get("repro_degraded_mode", 0)
        )
    storm.join(timeout=config.fault_seconds + config.request_timeout + 60)
    report.deadline_hits = sum(1 for s in recorder.samples if s.kind == "deadline")

    # Phase 7: verify — fixed labels again: poisoned entries must be
    # detected and recomputed into the same bit-identical rows.
    for item in mix:
        _call_item(control, item, item.request.label, phase="verify", recorder=recorder)
    final_stats = control.stats()
    report.final_stats["stats"] = final_stats
    report.worker_restarts = sum(
        int(entry.get("restarts", 0))
        for entry in final_stats.get("shards") or []
        if isinstance(entry, dict)
    )
    cache_stats = final_stats.get("answer_cache") or {}
    # A kill-fault restart resets the counter; keep the pre-kill reading.
    report.poisoned_detected = max(
        report.poisoned_detected, cache_stats.get("poisoned", 0)
    )
    report.store_errors = int(
        (final_stats.get("registry") or {}).get("store_errors", 0) or 0
    )

    snapshots = scraper.stop()
    report.metrics_scrapes = len(snapshots)
    report.metrics_violations = monotonicity_violations(snapshots)

    report.transport_errors = sum(
        1 for s in recorder.samples if s.kind == "transport"
    )
    report.bit_identity_checked = recorder.checked
    report.bit_identity_failures = len(recorder.mismatches)

    _score(config, report, recorder, final_stats)
    return report


def _score(
    config: LoadTestConfig,
    report: LoadTestReport,
    recorder: _Recorder,
    final_stats: Mapping[str, Any],
) -> None:
    """Turn measurements into pass/fail: the degradation invariants."""
    failures = report.failures
    if recorder.mismatches:
        failures.append(
            f"{len(recorder.mismatches)} bit-identity mismatches; first: "
            + recorder.mismatches[0][:500]
        )
    if report.rejected_missing_retry_after:
        failures.append(
            f"{report.rejected_missing_retry_after} 429 responses lacked Retry-After"
        )
    bounded = any(
        bound is not None
        for bound in (config.max_queue, config.max_pending, config.max_inflight)
    )
    if bounded and report.overload_rejected == 0:
        failures.append(
            "overload never triggered backpressure (0 rejections with "
            f"max_queue={config.max_queue}, max_pending={config.max_pending}, "
            f"max_inflight={config.max_inflight})"
        )
    clean_transport = sum(
        1
        for s in recorder.samples
        if s.kind == "transport" and s.phase != "faults"
    )
    if clean_transport:
        failures.append(
            f"{clean_transport} connection-level errors outside the fault phase"
        )
    storm_transport = report.transport_errors - clean_transport
    if not config.inject_kill and storm_transport:
        failures.append(
            f"{storm_transport} connection-level errors in the fault phase "
            "with no kill fault injected"
        )
    unexpected = [
        s for s in recorder.samples if s.kind == "http_error"
    ]
    if unexpected:
        failures.append(
            f"{len(unexpected)} unexpected HTTP errors "
            f"(statuses {sorted({s.status for s in unexpected})})"
        )
    if report.metrics_violations:
        failures.append(
            f"{len(report.metrics_violations)} metrics monotonicity violations; "
            f"first: {report.metrics_violations[0]}"
        )
    if config.inject_poison and report.poisoned_detected == 0:
        failures.append("cache was poisoned but no poisoned entry was ever detected")
    if config.inject_slow and report.deadline_hits == 0:
        failures.append(
            "slow-handler fault + client budgets produced no 408/504 deadline hits"
        )
    if config.inject_malformed and report.malformed_probes == 0:
        failures.append("no malformed probes could be delivered")
    if config.inject_worker_kill:
        if report.worker_kills == 0:
            failures.append("worker-kill fault was configured but never delivered")
        elif report.worker_restarts == 0:
            failures.append(
                "a shard worker was SIGKILLed but the router never "
                "reported a respawn"
            )
    if config.inject_disk_fault:
        if report.degraded_peak == 0:
            failures.append(
                "disk faults were injected but repro_degraded_mode never raised"
            )
        if report.degraded_final:
            failures.append(
                "storage stayed degraded after the disk fault was cleared"
            )
        if report.store_errors == 0:
            failures.append(
                "disk faults were injected but no store errors were accounted"
            )
    if (
        config.check_p99
        and report.unloaded_p99 > 0
        and report.overload_admitted_p99
        > config.p99_degradation_limit * report.unloaded_p99
    ):
        failures.append(
            f"admitted p99 degraded {report.overload_admitted_p99 / report.unloaded_p99:.1f}x "
            f"under overload (limit {config.p99_degradation_limit}x)"
        )
    batching = final_stats.get("batching") or {}
    if config.max_pending is not None and batching.get("pending_requests", 0) > (
        config.max_pending
    ):
        failures.append(
            f"pending requests {batching['pending_requests']} exceed "
            f"max_pending={config.max_pending} after the run"
        )
