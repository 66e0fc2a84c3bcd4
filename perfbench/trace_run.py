"""The traced run (``--trace 1``): per-layer numbers from the ledger.

Units alternate untraced and traced, so the same run also yields the
tracing overhead: the traced minus the untraced median op latency, in
reference seconds (see ``reference.py``).
Every op of a traced run uses the workload's first input, so per-op
counts repeat exactly between runs of one seed.  Per-layer values are
means per traced op, which makes the self times plus the residual add
up to the mean traced op wall exactly.  Each metric has a ``.cached``
twin over the service's twin jobs; on workloads without them it
repeats the plain value (see ``README.md``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from ledger import Ledger, plan_all_layers
from repro.obs import ObsRecorder

#: Per-layer metric -> (ledger layer, self time or call count, unit).
SPANS = {
    # repro.geo / repro.tools.tracker
    "geo.trace_s": ("geo.trace", "self", "s"),
    "geo.classify_s": ("geo.classify", "self", "s"),
    # repro.core.fastpath
    "timeline.build_s": ("timeline.build", "self", "s"),
    "timeline.visible_s": ("timeline.visible", "self", "s"),
    "timeline.visible_calls": ("timeline.visible", "calls", "count"),
    "fluid.step_s": ("fluid.step", "self", "s"),
    "fluid.steps": ("fluid.step", "calls", "count"),
    # repro.leo / repro.cellular
    "channel.starlink.sample_s": ("channel.starlink.sample", "self", "s"),
    "channel.starlink.samples": ("channel.starlink.sample", "calls", "count"),
    "channel.cellular.sample_s": ("channel.cellular.sample", "self", "s"),
    "channel.cellular.samples": ("channel.cellular.sample", "calls", "count"),
    # repro.core.campaign
    "campaign.other_s": ("campaign", "self", "s"),
    # repro.core.dataset
    "dataset.encode_s": ("dataset.encode", "self", "s"),
    "dataset.decode_s": ("dataset.decode", "self", "s"),
    "dataset.save_json_s": ("dataset.save_json", "self", "s"),
    # repro.store
    "store.shard_append_s": ("store.shard_append", "self", "s"),
    "store.shard_appends": ("store.shard_append", "calls", "count"),
    "store.commit_s": ("store.commit", "self", "s"),
    "store.cache_get_s": ("store.cache_get", "self", "s"),
    "store.cache_put_s": ("store.cache_put", "self", "s"),
    "store.fsync_s": ("store.fsync", "self", "s"),
    "store.fsyncs": ("store.fsync", "calls", "count"),
    # repro.serve
    "serve.submit_s": ("serve.submit", "self", "s"),
    "serve.journal_append_s": ("serve.journal_append", "self", "s"),
    "serve.journal_appends": ("serve.journal_append", "calls", "count"),
    "serve.other_s": ("serve", "self", "s"),
    # repro.net / repro.transport / repro.emu
    "des.build_s": ("des.build", "self", "s"),
    "des.loop_s": ("des.loop", "self", "s"),
}
#: Per-op values derived in :func:`_op_row`, with their units.
DERIVED = {
    "dataset.encodes_per_record": "ratio",
    "store.cache_hits": "count",
    "store.cache_misses": "count",
    "store.job_bytes": "B",
    "serve.journal_append_s.p50": "s",
    "net.events_fired": "count",
    "net.events_cancelled": "count",
    "net.heap_depth_max": "count",
    "net.cancel_ratio": "ratio",
    "des.us_per_event": "us",
    "transport.retransmission_rate": "ratio",
    "mptcp.reinjections": "count",
    "trace.op_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: spec[2] for name, spec in SPANS.items()}
    units.update(DERIVED)
    units.update({f"{name}.cached": unit for name, unit in units.items()})
    units["trace.checks_failed"] = "count"
    return units


def _op_row(ledger: Ledger, result) -> dict[str, float]:
    row: dict[str, float] = {}
    for name, (layer, field, _unit) in SPANS.items():
        source = ledger.self_s if field == "self" else ledger.calls
        row[name] = float(source.get(layer, 0))
    records = result.expect.get("records", 0)
    encodes = ledger.calls.get("dataset.encode", 0)
    row["dataset.encodes_per_record"] = encodes / records if records else 0.0
    row["store.cache_hits"] = ledger.extra.get("store.cache_hits", 0.0)
    row["store.cache_misses"] = ledger.extra.get("store.cache_misses", 0.0)
    row["store.job_bytes"] = float(result.expect.get("job_bytes", 0))
    appends = ledger.durations.get("serve.journal_append", [])
    row["serve.journal_append_s.p50"] = statistics.median(appends) if appends else 0.0
    row["trace.op_s"] = result.latency_s
    row["trace.residual_s"] = result.latency_s - ledger.top_s
    fired = result.counters.get("net.events_fired", 0.0)
    cancelled = result.counters.get("net.events_cancelled", 0.0)
    row["net.events_fired"] = fired
    row["net.events_cancelled"] = cancelled
    row["net.heap_depth_max"] = result.counters.get("net.heap_depth_max", 0.0)
    row["net.cancel_ratio"] = cancelled / (fired + cancelled) if fired else 0.0
    row["des.us_per_event"] = row["des.loop_s"] / fired * 1e6 if fired else 0.0
    row["transport.retransmission_rate"] = result.expect.get(
        "transport.retransmission_rate", 0.0
    )
    row["mptcp.reinjections"] = result.expect.get("mptcp.reinjections", 0.0)
    return row


def _checks(workload_name: str, result, row: dict[str, float], escaped: list[str]) -> list[str]:
    """Counts the code implies; a miss means a wrapper lost calls."""
    expect = result.expect
    want: dict[str, float] = {}
    if escaped:
        return [f"bindings escaped the ledger: {escaped}"]
    if workload_name == "campaign_mem":
        want = {
            "channel.starlink.samples": expect["channel.starlink.samples"],
            "channel.cellular.samples": expect["channel.cellular.samples"],
            "fluid.steps": expect["fluid.steps"],
            "dataset.encodes_per_record": 0.0,
            "store.fsyncs": 0.0,
        }
    elif workload_name == "service_jobs" and result.kind == "op":
        want = {
            "channel.starlink.samples": expect["channel.starlink.samples"],
            "channel.cellular.samples": expect["channel.cellular.samples"],
            "fluid.steps": expect["fluid.steps"],
            "dataset.encodes_per_record": 4.0,
        }
    elif workload_name == "service_jobs":
        want = {
            "channel.starlink.samples": 0.0,
            "channel.cellular.samples": 0.0,
            "fluid.steps": 0.0,
            "dataset.encodes_per_record": 2.0,
        }
    elif workload_name == "des_packet":
        # No campaign, dataset, store or serve code runs here.
        want = {
            name: 0.0
            for name, (layer, field, _unit) in SPANS.items()
            if field == "calls" and not layer.startswith("des.")
        }
    return [
        f"{name}: {row[name]} != expected {value}"
        for name, value in want.items()
        if row[name] != value
    ]


def measure(workload, seconds: float, run_units, run_op):
    """Alternate untraced and traced units; return the ledger metrics."""
    ledger = Ledger()
    plan_all_layers(ledger)
    workload.fix_input()
    results = []
    untraced: dict[str, list[float]] = defaultdict(list)
    traced: dict[str, list[dict[str, float]]] = defaultdict(list)
    traced_ref: dict[str, list[float]] = defaultdict(list)
    failures: list[str] = []

    def on_unit(index: int, ops: list[int]) -> None:
        for k in ops:
            if index % 2 == 0:
                result = run_op(workload, k)
                untraced[result.kind].append(result.ref_s)
                results.append(result)
                continue
            ledger.reset()
            ledger.install()
            try:
                escaped = ledger.escaped()
                result = run_op(workload, k, ObsRecorder())
            finally:
                ledger.restore()
            results.append(result)
            if result.error is not None:
                continue
            row = _op_row(ledger, result)
            drives = result.expect.get("drives", 0)
            if workload.name == "service_jobs":
                # State-leak guard: every cold job misses, every twin hits.
                hits, misses = row["store.cache_hits"], row["store.cache_misses"]
                cold = result.kind == "op"
                if (hits, misses) != ((0.0, drives) if cold else (drives, 0.0)):
                    result.error = (
                        f"{'cold' if cold else 'twin'} job: {hits:g} cache hits,"
                        f" {misses:g} misses for {drives} drives"
                    )
                    continue
            failures.extend(_checks(workload.name, result, row, escaped))
            traced[result.kind].append(row)
            traced_ref[result.kind].append(result.ref_s)

    run_units(workload, seconds, on_unit, min_units=2)

    units = metric_units()
    primary_rows = traced["op"]
    cached_rows = traced["cached"] or primary_rows
    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in units.items():
        if name == "trace.checks_failed":
            metrics[name] = (float(len(failures)), unit)
            continue
        rows = cached_rows if name.endswith(".cached") else primary_rows
        key = name[: -len(".cached")] if name.endswith(".cached") else name
        if key == "trace.overhead_s":
            continue
        value = statistics.fmean(row[key] for row in rows) if rows else 0.0
        metrics[name] = (value, unit)
    # Overhead in reference seconds: both sides are same-run ratios.
    for suffix, kind in (("", "op"), (".cached", "cached")):
        traced_s = traced_ref[kind] or traced_ref["op"]
        base = untraced[kind] or untraced["op"]
        overhead = statistics.median(traced_s) - statistics.median(base) if traced_s and base else 0.0
        metrics[f"trace.overhead_s{suffix}"] = (overhead, "s")
    detail = {
        "traced_ops": {kind: len(rows) for kind, rows in traced.items()},
        "untraced_ops": {kind: len(v) for kind, v in untraced.items()},
        "check_failures": failures[:20],
    }
    return {name: metrics[name] for name in units}, detail, results
