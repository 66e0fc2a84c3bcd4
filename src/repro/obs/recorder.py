"""Recorder: the single handle instrumented code talks to.

Two implementations share one duck type:

* :class:`NullRecorder` — the default.  Every method returns a shared
  no-op singleton, so an instrumented hot path pays one no-op method
  call per event and allocates nothing.  With it installed, an
  instrumented run is byte-identical to an uninstrumented one (nothing
  touches RNG streams or simulated time either way).
* :class:`ObsRecorder` — a :class:`~repro.obs.metrics.MetricsRegistry`
  plus a :class:`~repro.obs.tracer.SpanTracer`.

Instrumented classes resolve their recorder once at construction::

    self._obs = recorder if recorder is not None else get_recorder()

so callers either pass one explicitly (the campaign threads its own
through channels and injectors) or inherit the process-wide default,
switched with :func:`use_recorder`.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import Any, Iterable, Iterator

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import SpanTracer, _ActiveSpan


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Do-nothing recorder: the zero-overhead default."""

    enabled = False

    def __reduce__(self) -> tuple[Any, ...]:
        # Pickling (e.g. a config or channel shipped to a campaign worker
        # process) resolves back to the shared singleton, preserving the
        # "one inert instance" identity checks rely on.
        return (_restore_null_recorder, ())

    def counter(self, name: str, /, **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, /, **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, /, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels: str
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def span(self, name: str, /, **meta: object) -> _NullSpan:
        return _NULL_SPAN


class ObsRecorder:
    """Live recorder: metrics registry + span tracer in one handle."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or SpanTracer()

    def counter(self, name: str, /, **labels: str) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, /, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, /, **meta: object) -> _ActiveSpan:
        return self.tracer.span(name, **meta)


def _restore_null_recorder() -> "NullRecorder":
    """Unpickle hook: every pickled NullRecorder is the singleton."""
    return NULL_RECORDER


#: Shared default: instrumentation resolves to this unless told otherwise.
NULL_RECORDER = NullRecorder()

_current: NullRecorder | ObsRecorder = NULL_RECORDER


def get_recorder() -> NullRecorder | ObsRecorder:
    """The process-wide recorder (a :class:`NullRecorder` by default)."""
    return _current


@contextmanager
def use_recorder(recorder: NullRecorder | ObsRecorder) -> Iterator[NullRecorder | ObsRecorder]:
    """Temporarily install ``recorder`` (restores the previous one)."""
    global _current
    previous = _current
    _current = recorder
    try:
        yield recorder
    finally:
        _current = previous
