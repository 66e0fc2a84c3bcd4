"""repro.obs: zero-dependency observability for the campaign pipeline.

Three pieces, one handle:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
* :class:`SpanTracer` — nested wall-clock spans (``time.perf_counter``;
  simulation determinism and RNG streams are untouched);
* :class:`ObsRecorder` / :class:`NullRecorder` — the duck type the
  instrumented layers (campaign, channels, DES loop, MPTCP schedulers,
  fault injector) talk to.  The null default costs one no-op call per
  event, so instrumentation is effectively free until switched on.

Artifacts: :class:`RunManifest` (written next to campaign checkpoints),
JSONL dumps, and Prometheus text — summarised by ``python -m repro.obs``.
"""

from repro.obs.export import (
    parse_prometheus_text,
    read_jsonl,
    to_prometheus_text,
    write_jsonl,
)
from repro.obs.manifest import RunManifest, WALL_CLOCK_METRICS
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    ObsRecorder,
    get_recorder,
    use_recorder,
)
from repro.obs.tracer import Span, SpanTracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecorder",
    "RunManifest",
    "Span",
    "SpanTracer",
    "WALL_CLOCK_METRICS",
    "get_recorder",
    "parse_prometheus_text",
    "read_jsonl",
    "to_prometheus_text",
    "use_recorder",
    "write_jsonl",
]
