"""Dependency-free Prometheus-text metrics for the service plane.

A tiny instrumentation kernel — counters, gauges, histograms and a
registry that renders the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
so the server can expose ``GET /metrics`` without taking on the
``prometheus_client`` dependency (numpy is the library's only runtime
dependency, by design).

Three deliberate simplifications versus the full client library:

* label sets are declared up front (``labelnames``) and children are
  addressed positionally through :meth:`LabeledMetric.labels`;
* counters may be *sampled* — constructed with a ``callback`` that reads
  an existing monotone counter (the registry hit/miss/eviction counts
  already live on :class:`~repro.service.registry.SessionRegistry`;
  re-plumbing them would risk double counting);
* histograms use fixed cumulative buckets chosen at construction.

Everything is thread-safe: observations arrive both from the asyncio
event loop and from executor threads running batches.  Rendering takes
each metric's lock briefly, so a scrape observes a consistent snapshot
per metric series — and every value a scrape reports for a counter or
histogram bucket is monotonically non-decreasing across scrapes (the
invariant the load-test harness asserts).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "WIDTH_BUCKETS",
    "parse_metrics_text",
]

#: Default latency buckets (seconds): sub-millisecond warm hits through
#: multi-second saturated batches.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default batch-width buckets (requests coalesced into one pass).
WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _format_value(value: float) -> str:
    """Integers render without a trailing ``.0`` (both forms are legal)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + body + "}"


class Counter:
    """A monotone counter, optionally label-less or callback-sampled."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ):
        if callback is not None and labelnames:
            raise ValueError("callback counters cannot take labels")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._callback = callback
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def labels(self, *values) -> "_CounterChild":
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}"
            )
        return _CounterChild(self, tuple(str(v) for v in values))

    def inc(self, amount: float = 1) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels")
        self._inc((), amount)

    def _inc(self, key: tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, *labelvalues) -> float:
        """The current value of one series (0 if never incremented)."""
        if self._callback is not None:
            return self._callback()
        with self._lock:
            return self._values.get(tuple(str(v) for v in labelvalues), 0)

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        if self._callback is not None:
            return [((), self._callback())]
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        recorded = self.samples()
        if not recorded and not self.labelnames:
            recorded = [((), 0)]
        for key, value in recorded:
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines


class _CounterChild:
    """One labeled series of a :class:`Counter`."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Counter, key: tuple[str, ...]):
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1) -> None:
        self._parent._inc(self._key, amount)


class Gauge:
    """A callback-sampled instantaneous value, read at every render.

    An unlabeled gauge's callback returns a number.  A *labeled* gauge's
    returns a mapping from label-value tuples (or a single string for one
    label) to numbers — the shape the router uses for per-shard series,
    whose children appear and disappear with worker respawns (gauges
    carry no monotonicity contract, so that churn is legal where a
    labeled counter reset would not be).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        callback: Callable[[], float],
        labelnames: Sequence[str] = (),
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._callback = callback

    def _sampled(self) -> dict[tuple[str, ...], float]:
        mapping: Mapping = self._callback() or {}
        normalized: dict[tuple[str, ...], float] = {}
        for key, value in mapping.items():
            values = key if isinstance(key, tuple) else (key,)
            normalized[tuple(str(v) for v in values)] = value
        return normalized

    def value(self, *labelvalues) -> float:
        if self.labelnames:
            return self._sampled().get(tuple(str(v) for v in labelvalues), 0)
        return self._callback()

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        if self.labelnames:
            for key, value in sorted(self._sampled().items()):
                lines.append(
                    f"{self.name}{_render_labels(self.labelnames, key)} "
                    f"{_format_value(value)}"
                )
            return lines
        lines.append(f"{self.name} {_format_value(self.value())}")
        return lines


class Histogram:
    """Cumulative-bucket histogram (``_bucket``/``_sum``/``_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.bounds = bounds
        self._lock = threading.Lock()
        # key -> ([per-bucket counts..., +Inf count], sum)
        self._series: dict[tuple[str, ...], tuple[list[int], float]] = {}

    def labels(self, *values) -> "_HistogramChild":
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}"
            )
        return _HistogramChild(self, tuple(str(v) for v in values))

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels")
        self._observe((), value)

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        with self._lock:
            counts, total = self._series.get(key, (None, 0.0))
            if counts is None:
                counts = [0] * (len(self.bounds) + 1)
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[position] += 1
            counts[-1] += 1  # +Inf
            self._series[key] = (counts, total + value)

    def snapshot(self, *labelvalues) -> tuple[list[int], float, int]:
        """``(cumulative bucket counts incl. +Inf, sum, count)`` of one series."""
        key = tuple(str(v) for v in labelvalues)
        with self._lock:
            counts, total = self._series.get(key, (None, 0.0))
            if counts is None:
                return [0] * (len(self.bounds) + 1), 0.0, 0
            return list(counts), total, counts[-1]

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            series = sorted(
                (key, list(counts), total)
                for key, (counts, total) in self._series.items()
            )
        for key, counts, total in series:
            for bound, count in zip(self.bounds, counts):
                labels = _render_labels(
                    (*self.labelnames, "le"), (*key, _format_value(bound))
                )
                lines.append(f"{self.name}_bucket{labels} {count}")
            inf_labels = _render_labels((*self.labelnames, "le"), (*key, "+Inf"))
            lines.append(f"{self.name}_bucket{inf_labels} {counts[-1]}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {counts[-1]}")
        return lines


class _HistogramChild:
    """One labeled series of a :class:`Histogram`."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Histogram, key: tuple[str, ...]):
        self._parent = parent
        self._key = key

    def observe(self, value: float) -> None:
        self._parent._observe(self._key, value)


class MetricsRegistry:
    """An ordered collection of metrics rendered as one text document."""

    def __init__(self):
        self._metrics: list[Counter | Gauge | Histogram] = []
        self._names: set[str] = set()
        self._lock = threading.Lock()

    def _register(self, metric):
        with self._lock:
            if metric.name in self._names:
                raise ValueError(f"duplicate metric name {metric.name!r}")
            self._names.add(metric.name)
            self._metrics.append(metric)
        return metric

    def counter(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Counter:
        return self._register(Counter(name, help, labelnames, callback))

    def gauge(
        self,
        name: str,
        help: str,
        callback: Callable[[], float],
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._register(Gauge(name, help, callback, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets, labelnames))

    def render(self) -> str:
        with self._lock:
            metrics = list(self._metrics)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def parse_metrics_text(text: str) -> dict[str, float]:
    """Parse exposition text into ``{'name{labels}': value}``.

    The inverse the tests and the load-test harness use to assert
    counter values and monotonicity; labels are normalized by sorting,
    so the key is independent of render order.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            continue
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            labels = label_blob.rstrip("}")
            pieces = sorted(filter(None, _split_labels(labels)))
            key = name + "{" + ",".join(pieces) + "}"
        else:
            key = name_part
        samples[key] = float(value_part)
    return samples


def _split_labels(blob: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pieces: list[str] = []
    current: list[str] = []
    quoted = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            quoted = not quoted
        if char == "," and not quoted:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        pieces.append("".join(current))
    return pieces
