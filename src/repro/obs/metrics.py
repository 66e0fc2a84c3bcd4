"""Counters, gauges, and fixed-bucket histograms.

The registry is the single mutable store behind :mod:`repro.obs`: every
instrumented layer asks it for a metric handle once (at construction) and
then mutates that handle on the hot path.  Handles are plain Python
objects with one-attribute updates — no locks, no string formatting, no
allocation per event — so instrumentation stays cheap even when enabled.

Metrics are identified by ``(name, labels)``; asking twice for the same
identity returns the same handle, which is how per-drive channels from
different construction sites aggregate into one series.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, TypeVar

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
)


class Counter:
    """Monotonically increasing count (events, seconds, tests)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Last-written value (heap depth, rate, configuration knob)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (cheap max tracking)."""
        if value > self.value:
            self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative export).

    Buckets are upper bounds; observations above the last bound land in
    the implicit ``+Inf`` bucket.  Counts are stored per-bucket
    (non-cumulative) internally and cumulated only at export time.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


Metric = Counter | Gauge | Histogram
_MetricKey = tuple[type, str, tuple[tuple[str, str], ...]]
_SimpleMetric = TypeVar("_SimpleMetric", Counter, Gauge)


class MetricsRegistry:
    """All metrics of one run, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: dict[_MetricKey, Metric] = {}

    def counter(self, name: str, /, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        /,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (Histogram, name, _label_key(labels))
        metric = self._metrics.get(key)
        # The key embeds the class, so the isinstance check is really a
        # presence check — but it also narrows the stored union type.
        if not isinstance(metric, Histogram):
            metric = Histogram(name, buckets=buckets, labels=_label_key(labels))
            self._metrics[key] = metric
        return metric

    def _get(
        self,
        cls: type[_SimpleMetric],
        name: str,
        labels: dict[str, str],
    ) -> _SimpleMetric:
        key = (cls, name, _label_key(labels))
        metric = self._metrics.get(key)
        if not isinstance(metric, cls):
            metric = cls(name, labels=_label_key(labels))
            self._metrics[key] = metric
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def snapshot(self) -> list[dict[str, Any]]:
        """Serializable state of every metric, sorted for stable output."""
        return [
            m.to_dict()
            for m in sorted(
                self._metrics.values(), key=lambda m: (m.name, m.labels)
            )
        ]

    def restore(self, entries: Iterable[dict[str, Any]]) -> None:
        """Load a :meth:`snapshot` back into this registry (round-trip)."""
        for entry in entries:
            kind = entry["type"]
            labels = entry.get("labels", {})
            if kind == "counter":
                self.counter(entry["name"], **labels).value = float(entry["value"])
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    entry["name"], buckets=entry["buckets"], **labels
                )
                hist.counts = [int(c) for c in entry["counts"]]
                hist.total = float(entry["sum"])
                hist.count = int(entry["count"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")

    def merge(self, entries: Iterable[dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Merge semantics (the contract parallel campaign workers rely on):
        counters and histograms are additive; gauges are last-write-wins,
        so callers apply worker snapshots in drive order.  A histogram
        can only merge into a series with the same bucket bounds.
        """
        for entry in entries:
            kind = entry["type"]
            labels = entry.get("labels", {})
            if kind == "counter":
                self.counter(entry["name"], **labels).value += float(
                    entry["value"]
                )
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    entry["name"], buckets=entry["buckets"], **labels
                )
                bounds = tuple(sorted(float(b) for b in entry["buckets"]))
                if bounds != hist.buckets:
                    raise ValueError(
                        f"histogram {entry['name']!r} bucket mismatch: "
                        f"{bounds} != {hist.buckets}"
                    )
                for i, c in enumerate(entry["counts"]):
                    hist.counts[i] += int(c)
                hist.total += float(entry["sum"])
                hist.count += int(entry["count"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")

    def value(self, name: str, /, **labels: str) -> float:
        """Current value of a counter/gauge (0.0 when never touched).

        Convenience for tests and the CLI; histograms expose richer state
        through their handle.
        """
        key_labels = _label_key(labels)
        for metric in self._metrics.values():
            if metric.name == name and metric.labels == key_labels:
                if isinstance(metric, Histogram):
                    return float(metric.count)
                return float(metric.value)
        return 0.0

    def by_name(self, name: str) -> list[Metric]:
        """Every labelled series of one metric name."""
        return [m for m in self._metrics.values() if m.name == name]
