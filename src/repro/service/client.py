"""A small stdlib HTTP client for the estimation service.

:class:`ServiceClient` wraps the JSON API of
:class:`~repro.service.server.EstimationServer`: it serializes
``(Database, FDSet)`` pairs through :func:`repro.io.instance_to_dict`,
posts request documents, and hands back the service's JSON rows
verbatim (the ``batch --json`` row schema).  Calls travel over
persistent HTTP/1.1 connections (:mod:`http.client`): a pool holds one
idle connection per concurrent caller, so the client is thread-safe and
a thread reuses its connection from call to call.  A pooled connection
the server has since closed (idle timeout, restart) is detected on use
and the call is retried once on a fresh connection — estimates are
deterministic and idempotent, so the retry is safe.  The encoded JSON
text of each small instance is memoized per pair of objects (a bounded
LRU keyed by identity, never by equality, under which ``1 == 1.0``), so
repeated calls on one instance skip re-encoding it.
:meth:`ServiceClient.close` (or a ``with`` block) closes the pooled
connections.

Error handling is total: *every* failure mode — JSON error responses,
non-JSON bodies (a proxy's HTML 500 page), truncated responses, refused
connections — surfaces as :class:`ServiceClientError` carrying the HTTP
status (0 when no response arrived) and a bounded excerpt of whatever
body was received, never a raw ``json.JSONDecodeError`` or bare
``OSError``.  A ``429``'s ``Retry-After`` header is parsed onto the
error (:attr:`ServiceClientError.retry_after`), and constructing the
client with ``max_retries > 0`` makes it honor that hint itself:
rejected calls sleep ``min(Retry-After, retry_after_cap)`` and retry up
to the bound, then raise the final rejection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Any, Mapping, Sequence

from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.queries import ConjunctiveQuery
from ..io import format_query, instance_to_dict
from .cache import INSTANCE_MEMO_MAX_BYTES, Memo
from .registry import DEFAULT_MAX_SESSIONS

#: Longest body excerpt attached to a :class:`ServiceClientError`.
_EXCERPT_LIMIT = 200

#: Failures that mean a pooled connection was closed by the server
#: before this request reached it (``RemoteDisconnected`` is a
#: ``ConnectionResetError``).
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


def _excerpt(body: bytes) -> str:
    text = body.decode("utf-8", errors="replace")
    if len(text) > _EXCERPT_LIMIT:
        return text[:_EXCERPT_LIMIT] + "…"
    return text


class ServiceClientError(RuntimeError):
    """An estimation-service call that failed.

    ``status`` is the HTTP status code (``0`` when no HTTP response was
    received at all — connection refused, truncated mid-body).
    ``payload`` is the decoded JSON error document when the server sent
    one, else a synthesized ``{"error": ..., "body_excerpt": ...}``
    describing what *was* received.  ``retry_after`` carries a parsed
    ``Retry-After`` header (seconds) when the response had one.
    """

    def __init__(
        self,
        status: int,
        payload: Mapping[str, Any],
        retry_after: float | None = None,
    ):
        self.status = status
        self.payload = dict(payload)
        self.retry_after = retry_after
        super().__init__(f"HTTP {status}: {self.payload.get('error', self.payload)}")


def _retry_after_seconds(headers) -> float | None:
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _json_document(status: int, body: bytes) -> dict:
    """A success body decoded as a JSON object, or the error describing it."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ServiceClientError(
            status,
            {"error": "response body is not valid JSON", "body_excerpt": _excerpt(body)},
        ) from None
    if not isinstance(document, dict):
        raise ServiceClientError(
            status,
            {
                "error": "response body is not a JSON object",
                "body_excerpt": _excerpt(body),
            },
        )
    return document


def _close_connections(
    idle: list[http.client.HTTPConnection], lock: threading.Lock
) -> None:
    with lock:
        connections = idle[:]
        idle.clear()
    for connection in connections:
        connection.close()


def _generator_name(generator: MarkovChainGenerator | str) -> str:
    return generator if isinstance(generator, str) else generator.name


def _query_text(query: ConjunctiveQuery | str) -> str:
    return query if isinstance(query, str) else format_query(query)


class ServiceClient:
    """A client bound to one service base URL (e.g. from
    :attr:`EstimationServer.url <repro.service.server.EstimationServer.url>`).

    ``max_retries`` bounds how many times a ``429``-rejected call is
    retried after sleeping the server's ``Retry-After`` hint (capped at
    ``retry_after_cap`` seconds per sleep); ``0`` (the default) raises
    immediately, preserving the pre-hardening behavior.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 300.0,
        *,
        max_retries: int = 0,
        retry_after_cap: float = 5.0,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_after_cap <= 0:
            raise ValueError("retry_after_cap must be positive")
        self.base_url = base_url.rstrip("/")
        scheme, _, rest = self.base_url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(f"base_url must be an http:// URL, got {base_url!r}")
        address, slash, prefix = rest.partition("/")
        self._address = address
        self._prefix = slash + prefix
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_after_cap = retry_after_cap
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # A client dropped without close() still closes its sockets.
        weakref.finalize(self, _close_connections, self._idle, self._lock)
        #: ``(id(database), id(constraints))`` → ``(database, constraints,
        #: text)``: an entry holds its objects, so no other live object can
        #: share its ids while it is stored.
        self._instances = Memo(DEFAULT_MAX_SESSIONS)

    def close(self) -> None:
        """Close the pooled connections (the client stays usable)."""
        _close_connections(self._idle, self._lock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------------

    def _call(self, method: str, path: str, payload: Any = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return self._json_call(method, path, body)

    def _json_call(self, method: str, path: str, body: bytes | None) -> dict:
        for attempt in range(self.max_retries + 1):
            try:
                return _json_document(*self._call_once(method, path, body))
            except ServiceClientError as error:
                retriable = (
                    error.status == 429
                    and error.retry_after is not None
                    and attempt < self.max_retries
                )
                if not retriable:
                    raise
                time.sleep(min(error.retry_after, self.retry_after_cap))
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """One request/response exchange: ``(status, body)`` of a 2xx/3xx.

        Error statuses and transport failures raise
        :class:`ServiceClientError`.  A pooled connection found closed is
        replaced and the request sent once more.
        """
        url = self.base_url + path
        headers = {"Content-Type": "application/json"} if body is not None else {}
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        for reused in (connection is not None, False):
            if not reused:
                connection = http.client.HTTPConnection(
                    self._address, timeout=self.timeout
                )
            try:
                connection.request(method, self._prefix + path, body, headers)
                response = connection.getresponse()
                data = response.read()
                break
            except http.client.IncompleteRead as error:
                connection.close()
                raise ServiceClientError(
                    0,
                    {
                        "error": f"truncated response from {url}: {error!r}",
                        "body_excerpt": _excerpt(error.partial),
                    },
                ) from None
            except _STALE_CONNECTION as error:
                connection.close()
                if reused:
                    continue
                raise ServiceClientError(
                    0, {"error": f"truncated response from {url}: {error!r}"}
                ) from None
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                raise ServiceClientError(
                    0, {"error": f"request to {url} failed: {error!r}"}
                ) from None
        if connection.sock is not None:  # the server kept it open
            with self._lock:
                self._idle.append(connection)
        if response.status < 400:
            return response.status, data
        try:
            decoded = json.loads(data.decode("utf-8"))
            if not isinstance(decoded, Mapping):
                raise ValueError("non-object error body")
        except (ValueError, UnicodeDecodeError):
            decoded = {
                "error": f"non-JSON error body ({response.reason})",
                "body_excerpt": _excerpt(data),
            }
        raise ServiceClientError(
            response.status, decoded, _retry_after_seconds(response.headers)
        )

    def _instance_text(self, database: Database, constraints: FDSet) -> str:
        """The instance's encoded JSON document (memoized when small)."""
        key = (id(database), id(constraints))
        entry = self._instances.get(key)
        if entry is None:
            entry = (
                database,
                constraints,
                json.dumps(instance_to_dict(database, constraints)),
            )
            if len(entry[2]) <= INSTANCE_MEMO_MAX_BYTES:
                self._instances.put(key, entry)
        return entry[2]

    def _post_with_instance(
        self,
        path: str,
        database: Database,
        constraints: FDSet,
        fields: Mapping[str, Any],
    ) -> dict:
        """POST ``fields`` plus the memoized ``"instance"`` text."""
        instance = self._instance_text(database, constraints)
        rest = json.dumps(fields)  # never empty: "query" is always there
        body = '{"instance": ' + instance + ", " + rest[1:]
        return self._json_call("POST", path, body.encode("utf-8"))

    # -- monitoring --------------------------------------------------------------------

    def healthz(self) -> dict:
        """The server's liveness document."""
        return self._call("GET", "/healthz")

    def stats(self) -> dict:
        """Registry / micro-batcher / answer-cache / server counters."""
        return self._call("GET", "/stats")

    def metrics(self) -> dict[str, float]:
        """Scrape ``GET /metrics`` and parse it into ``{series: value}``.

        Uses :func:`repro.service.metrics.parse_metrics_text`; the raw
        exposition text is available via :meth:`metrics_text`.
        """
        from .metrics import parse_metrics_text

        return parse_metrics_text(self.metrics_text())

    def metrics_text(self) -> str:
        """The raw Prometheus exposition text from ``GET /metrics``."""
        _, data = self._call_once("GET", "/metrics")
        return data.decode("utf-8")

    # -- estimation --------------------------------------------------------------------

    def estimate(
        self,
        database: Database,
        constraints: FDSet,
        query: ConjunctiveQuery | str,
        answer: Sequence = (),
        *,
        generator: MarkovChainGenerator | str = "M_ur",
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        max_samples: int | None = None,
        mode: str = "fixed",
        label: str = "request",
        budget_seconds: float | None = None,
    ) -> dict:
        """Score one ``(query, answer)`` and return its result row."""
        document: dict[str, Any] = {
            "query": _query_text(query),
            "generator": _generator_name(generator),
            "answer": list(answer),
            "epsilon": epsilon,
            "delta": delta,
            "method": method,
            "mode": mode,
            "label": label,
        }
        if max_samples is not None:
            document["max_samples"] = max_samples
        if budget_seconds is not None:
            document["budget_seconds"] = budget_seconds
        (row,) = self._post_with_instance(
            "/estimate", database, constraints, document
        )["results"]
        return row

    def estimate_workload(self, document: Mapping[str, Any]) -> list[dict]:
        """Post a full workload document; returns rows in request order.

        The document uses the ``docs/FORMATS.md`` workload schema with
        *inline* instance documents (the server rejects file paths).
        """
        return self._call("POST", "/estimate", dict(document))["results"]

    def answers(
        self,
        database: Database,
        constraints: FDSet,
        query: ConjunctiveQuery | str,
        *,
        generator: MarkovChainGenerator | str = "M_ur",
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        max_samples: int | None = None,
        mode: str = "fixed",
        label: str = "request",
        budget_seconds: float | None = None,
    ) -> list[dict]:
        """Score every candidate answer of ``Q(D)``; returns the rows."""
        document: dict[str, Any] = {
            "query": _query_text(query),
            "generator": _generator_name(generator),
            "epsilon": epsilon,
            "delta": delta,
            "method": method,
            "mode": mode,
            "label": label,
        }
        if max_samples is not None:
            document["max_samples"] = max_samples
        if budget_seconds is not None:
            document["budget_seconds"] = budget_seconds
        return self._post_with_instance(
            "/answers", database, constraints, document
        )["answers"]
