"""Exporters: JSONL dumps and Prometheus text exposition.

Both formats round-trip: :func:`read_jsonl` reverses
:func:`write_jsonl`, and :func:`parse_prometheus_text` reverses
:func:`to_prometheus_text` (modulo metric-name sanitisation, which maps
dots to underscores the way Prometheus requires).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ObsRecorder
from repro.obs.tracer import Span, SpanTracer


# -- JSONL ---------------------------------------------------------------


def write_jsonl(recorder: ObsRecorder, path: str | os.PathLike[str]) -> int:
    """Dump every metric and span as one JSON object per line.

    Returns the number of lines written.  The first line is a header so
    readers can sanity-check provenance.
    """
    lines: list[dict[str, Any]] = [
        {"type": "header", "format": "repro.obs.jsonl", "version": 1}
    ]
    lines.extend(recorder.registry.snapshot())
    lines.extend(span.to_dict() for span in recorder.tracer.spans)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True))
            handle.write("\n")
    return len(lines)


def read_jsonl(path: str | os.PathLike[str]) -> ObsRecorder:
    """Rebuild a recorder (registry + spans) from a JSONL dump."""
    registry = MetricsRegistry()
    tracer = SpanTracer()
    with open(path) as handle:
        for raw_line in handle:
            raw_line = raw_line.strip()
            if not raw_line:
                continue
            entry = json.loads(raw_line)
            kind = entry.get("type")
            if kind == "header":
                if entry.get("format") != "repro.obs.jsonl":
                    raise ValueError(
                        f"{os.fspath(path)!r} is not a repro.obs JSONL dump"
                    )
            elif kind == "span":
                tracer.spans.append(Span.from_dict(entry))
            else:
                registry.restore([entry])
    return ObsRecorder(registry=registry, tracer=tracer)


# -- Prometheus text format ----------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitise to the Prometheus name charset (dots -> underscores)."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(labels: dict[str, str] | Iterable[tuple[str, str]]) -> str:
    pairs = dict(labels)
    if not pairs:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(pairs.items())
    )
    return "{" + body + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    out: list[str] = []
    seen_help: set[str] = set()
    for entry in registry.snapshot():
        kind = entry["type"]
        name = _prom_name(entry["name"])
        labels = entry["labels"]
        if kind == "counter":
            full = f"{name}_total"
            if full not in seen_help:
                out.append(f"# TYPE {full} counter")
                seen_help.add(full)
            out.append(f"{full}{_prom_labels(labels)} {entry['value']:g}")
        elif kind == "gauge":
            if name not in seen_help:
                out.append(f"# TYPE {name} gauge")
                seen_help.add(name)
            out.append(f"{name}{_prom_labels(labels)} {entry['value']:g}")
        elif kind == "histogram":
            if name not in seen_help:
                out.append(f"# TYPE {name} histogram")
                seen_help.add(name)
            running = 0
            # counts has one overflow entry more than buckets; the zip
            # dropping it is the point.
            for bound, count in zip(entry["buckets"], entry["counts"], strict=False):
                running += count
                le = {**labels, "le": f"{bound:g}"}
                out.append(f"{name}_bucket{_prom_labels(le)} {running}")
            running += entry["counts"][-1]
            inf = {**labels, "le": "+Inf"}
            out.append(f"{name}_bucket{_prom_labels(inf)} {running}")
            out.append(f"{name}_sum{_prom_labels(labels)} {entry['sum']:g}")
            out.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
        else:  # pragma: no cover - registry only emits the three kinds
            raise ValueError(f"unknown metric type {kind!r}")
    return "\n".join(out) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


# Kept: the round-trip oracle the Prometheus exporter is tested against.
def parse_prometheus_text(  # detlint: ignore[DF401]
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Counter samples keep their ``_total`` suffix and histograms their
    ``_bucket``/``_sum``/``_count`` expansion — the parser reverses the
    text format, not the registry schema.  Used by the round-trip tests
    and the CLI.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (m.group("key"), m.group("value").replace('\\"', '"').replace("\\\\", "\\"))
                for m in _LABEL_RE.finditer(labels_text)
            )
        )
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples
