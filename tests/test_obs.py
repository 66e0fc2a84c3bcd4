"""The repro.obs observability subsystem.

Covers the metric/tracer primitives, the recorder duck type, exporter
round-trips, the run manifest, the CLI, and — most importantly — the two
guarantees instrumentation makes to the pipeline: determinism is
untouched (instrumented runs are byte-identical) and the disabled
default is effectively free.
"""

import itertools
import json
import time

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import NETWORKS, record_to_dict
from repro.net.simulator import Simulator, Timer
from repro.obs import (
    MetricsRegistry,
    NULL_RECORDER,
    NullRecorder,
    ObsRecorder,
    RunManifest,
    SpanTracer,
    get_recorder,
    parse_prometheus_text,
    read_jsonl,
    to_prometheus_text,
    use_recorder,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main, render_summary
from repro.transport.mptcp.scheduler import Blest, SatAware, make_scheduler


# -- metrics primitives --------------------------------------------------


def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("events")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_max():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(4)
    g.set_max(2)
    assert g.value == 4.0
    g.set_max(9)
    assert g.value == 9.0


def test_histogram_buckets_and_cumulation():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(1.0, 10.0))
    for v in (0.5, 0.7, 5.0, 100.0):
        h.observe(v)
    assert h.counts == [2, 1, 1]  # <=1, <=10, +Inf
    assert list(itertools.accumulate(h.counts)) == [2, 3, 4]
    assert h.count == 4
    assert h.total == pytest.approx(106.2)
    assert h.mean == pytest.approx(106.2 / 4)


def test_registry_identity_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("x", network="RM")
    b = reg.counter("x", network="RM")
    c = reg.counter("x", network="MOB")
    assert a is b
    assert a is not c
    a.inc(3)
    assert reg.value("x", network="RM") == 3.0
    assert reg.value("x", network="MOB") == 0.0
    assert reg.value("never.touched") == 0.0
    assert len(reg.by_name("x")) == 2


def test_registry_snapshot_restore_round_trip():
    reg = MetricsRegistry()
    reg.counter("c", k="v").inc(7)
    reg.gauge("g").set(1.25)
    h = reg.histogram("h", buckets=(1.0, 2.0))
    h.observe(0.5)
    h.observe(9.0)
    clone = MetricsRegistry()
    clone.restore(reg.snapshot())
    assert clone.snapshot() == reg.snapshot()


# -- tracer --------------------------------------------------------------


def test_spans_nest_with_depth_and_parent():
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner", drive="0"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
    assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
    assert inner.meta == {"drive": "0"}
    assert outer.duration_s >= inner.duration_s >= 0.0


def test_tracer_timings_aggregate():
    tracer = SpanTracer()
    for _ in range(3):
        with tracer.span("step"):
            pass
    agg = tracer.timings()["step"]
    assert agg["count"] == 3
    assert agg["total_s"] >= agg["max_s"] >= agg["mean_s"] >= agg["min_s"] >= 0


# -- recorders -----------------------------------------------------------


def test_null_recorder_is_inert_singleton():
    null = NullRecorder()
    assert null.enabled is False
    assert null.counter("a") is null.counter("b", any="label")
    null.counter("a").inc()
    assert null.counter("a").value == 0.0
    null.gauge("g").set(5)
    null.histogram("h").observe(1.0)
    with null.span("s", k="v"):
        pass  # no state, no error


def test_labels_and_meta_may_shadow_positional_names():
    # ``name`` (and histogram's ``buckets``) are positional-only so labels
    # and span metadata are free to use those words — benchmarks/conftest.py
    # relies on span(..., name=...).
    rec = ObsRecorder()
    rec.counter("c", name="x").inc()
    rec.gauge("g", name="y").set(2.0)
    rec.histogram("h", name="z").observe(0.5)
    with rec.span("s", name="fixture"):
        pass
    assert rec.registry.value("c", name="x") == 1.0
    assert rec.tracer.spans[0].meta == {"name": "fixture"}
    null = NullRecorder()
    null.counter("c", name="x").inc()
    with null.span("s", name="fixture"):
        pass


def test_default_recorder_is_null_and_swappable():
    assert get_recorder() is NULL_RECORDER
    rec = ObsRecorder()
    with use_recorder(rec) as active:
        assert active is rec
        assert get_recorder() is rec
        get_recorder().counter("seen").inc()
    assert get_recorder() is NULL_RECORDER
    assert rec.registry.value("seen") == 1.0
    inner = ObsRecorder()
    with use_recorder(rec):
        with use_recorder(inner):
            assert get_recorder() is inner
        assert get_recorder() is rec
    with pytest.raises(RuntimeError), use_recorder(rec):
        raise RuntimeError("boom")
    assert get_recorder() is NULL_RECORDER


# -- exporters -----------------------------------------------------------


@pytest.fixture()
def populated_recorder():
    rec = ObsRecorder()
    rec.counter("channel.samples", network="RM").inc(360)
    rec.counter("channel.samples", network="ATT").inc(360)
    rec.gauge("sim.heap_depth_max").set(17)
    h = rec.histogram("campaign.drive_seconds", buckets=(1.0, 10.0))
    h.observe(0.4)
    h.observe(3.0)
    with rec.span("campaign.drive", drive="0"):
        pass
    return rec


def test_jsonl_round_trip(populated_recorder, tmp_path):
    path = tmp_path / "dump.jsonl"
    lines = write_jsonl(populated_recorder, path)
    # header + 4 metric series + 1 span
    assert lines == 6
    back = read_jsonl(path)
    assert back.registry.snapshot() == populated_recorder.registry.snapshot()
    assert [s.to_dict() for s in back.tracer.spans] == [
        s.to_dict() for s in populated_recorder.tracer.spans
    ]


def test_jsonl_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"type": "header", "format": "something-else"}\n')
    with pytest.raises(ValueError):
        read_jsonl(path)


def test_prometheus_round_trip(populated_recorder):
    text = to_prometheus_text(populated_recorder.registry)
    samples = parse_prometheus_text(text)
    assert samples[("channel_samples_total", (("network", "RM"),))] == 360.0
    assert samples[("sim_heap_depth_max", ())] == 17.0
    # Histogram expands to cumulative buckets + sum + count.
    assert samples[("campaign_drive_seconds_bucket", (("le", "1"),))] == 1.0
    assert samples[("campaign_drive_seconds_bucket", (("le", "10"),))] == 2.0
    assert samples[("campaign_drive_seconds_bucket", (("le", "+Inf"),))] == 2.0
    assert samples[("campaign_drive_seconds_sum", ())] == pytest.approx(3.4)
    assert samples[("campaign_drive_seconds_count", ())] == 2.0


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c", route='inter"state\\0').inc()
    samples = parse_prometheus_text(to_prometheus_text(reg))
    assert samples[("c_total", (("route", 'inter"state\\0'),))] == 1.0


# -- manifest ------------------------------------------------------------


def test_manifest_round_trip(populated_recorder, tmp_path):
    manifest = RunManifest.from_recorder(
        populated_recorder,
        fingerprint="abc123",
        drives=[{"drive": 0, "route": "interstate-0", "duration_s": 1.0, "tests": 60}],
        num_tests=60,
    )
    path = tmp_path / "run.manifest.json"
    manifest.save_json(path)
    loaded = RunManifest.load_json(path)
    assert loaded.to_dict() == manifest.to_dict()
    assert loaded.total("channel.samples") == 720.0
    assert loaded.metric_values("channel.samples")[(("network", "RM"),)] == 360.0
    assert "campaign.drive" in loaded.timings


def test_manifest_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "fingerprint": "x"}))
    with pytest.raises(ValueError):
        RunManifest.load_json(path)


# -- instrumented DES loop ----------------------------------------------


def test_simulator_records_events_and_heap_depth():
    rec = ObsRecorder()
    sim = Simulator(recorder=rec)
    timer = Timer(sim, lambda: None)
    timer.arm(1.0)
    sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    timer.cancel()
    sim.run()
    assert rec.registry.value("sim.events_fired") == 2.0
    assert rec.registry.value("sim.events_cancelled") == 1.0
    assert rec.registry.value("sim.heap_depth_max") == 3.0


# -- instrumented schedulers --------------------------------------------


class _FakeSubflow:
    def __init__(self, sid, rtt):
        self.subflow_id = sid
        self.smoothed_rtt_s = rtt

        class CC:
            cwnd = 10.0

        self.cc = CC()


class _FakeConnection:
    def __init__(self, now, subflows):
        self.sim = type("S", (), {"now": now})()
        self.subflows = subflows

    def send_window_left(self):
        return 1 << 20


def test_scheduler_records_decisions_per_subflow():
    rec = ObsRecorder()
    sched = make_scheduler("minrtt", recorder=rec)
    fast, slow = _FakeSubflow(1, 0.02), _FakeSubflow(0, 0.08)
    conn = _FakeConnection(0.0, [slow, fast])
    assert sched.pick([slow, fast], conn) is fast
    assert sched.pick([slow, fast], conn) is fast
    assert sched.pick([], conn) is None
    assert (
        rec.registry.value(
            "mptcp.scheduler.decisions", scheduler="minrtt", subflow="1"
        )
        == 2.0
    )
    assert rec.registry.value("mptcp.scheduler.waits", scheduler="minrtt") == 1.0


def test_sataware_delegation_counts_decisions_once():
    """SatAware delegates to Blest internals; a pick is one decision."""
    rec = ObsRecorder()
    sched = SatAware(
        interval_s=15.0, guard_before_s=1.0, guard_after_s=1.0, recorder=rec
    )
    sat, cell = _FakeSubflow(0, 0.06), _FakeSubflow(1, 0.05)
    conn = _FakeConnection(7.0, [sat, cell])
    assert sched.pick([sat, cell], conn) is cell
    decisions = rec.registry.by_name("mptcp.scheduler.decisions")
    assert sum(m.value for m in decisions) == 1.0
    assert decisions[0].labels == (("scheduler", "sataware"), ("subflow", "1"))
    # Guard window, satellite only: the hold is one wait, not a Blest wait.
    conn = _FakeConnection(14.5, [sat, cell])
    assert sched.pick([sat], conn) is None
    waits = rec.registry.by_name("mptcp.scheduler.waits")
    assert sum(m.value for m in waits) == 1.0


def test_blest_still_validates_lambda():
    with pytest.raises(ValueError):
        Blest(scaling_lambda=0.0)


# -- campaign integration ------------------------------------------------


#: Timed (null, instrumented) pairs of small campaigns.
OVERHEAD_PAIRS = 3


@pytest.fixture(scope="module")
def observed_runs(tmp_path_factory):
    """One small campaign per recorder flavour, in adjacent timed pairs.

    Timing uses CPU time (``time.process_time``) so scheduler noise and
    I/O don't pollute the overhead comparison, and the timed runs carry
    no checkpoint (checkpoint writes are I/O, not instrumentation).  The
    two runs of a pair follow each other, and the side that runs first
    alternates from pair to pair, so a load that comes and goes (say, a
    second test run on the other core) weighs on both sides of a pair.
    """
    out = tmp_path_factory.mktemp("obs_campaign")
    checkpoint = out / "campaign.store"

    def timed(recorder):
        started = time.process_time()
        dataset = Campaign(CampaignConfig.small(), recorder=recorder).run()
        return time.process_time() - started, dataset

    pairs = []
    null_dataset = None
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            obs_s, _ = timed(ObsRecorder())
            null_s, null_dataset = timed(None)
        else:
            null_s, null_dataset = timed(None)
            obs_s, _ = timed(ObsRecorder())
        pairs.append((null_s, obs_s))

    # One more instrumented run, with a checkpoint, for the artifact tests.
    recorder = ObsRecorder()
    campaign = Campaign(CampaignConfig.small(), recorder=recorder)
    obs_dataset = campaign.run(checkpoint_path=checkpoint)

    return {
        "null_dataset": null_dataset,
        "obs_dataset": obs_dataset,
        "pairs": pairs,
        "recorder": recorder,
        "campaign": campaign,
        "manifest_path": f"{checkpoint}.manifest.json",
    }


def test_instrumented_run_is_byte_identical(observed_runs):
    """The central guarantee: recording changes nothing in the dataset."""

    def blob(dataset):
        return json.dumps(
            [record_to_dict(r) for r in dataset.records], sort_keys=True
        ).encode()

    assert blob(observed_runs["null_dataset"]) == blob(observed_runs["obs_dataset"])


def test_instrumentation_overhead_under_5_percent(observed_runs):
    """An enabled recorder stays within 5% of the null default.

    Timing comparisons are noisy even on CPU time, so the bound carries
    a small absolute allowance on top of the 5% relative budget.  It is
    judged pair by pair, never on the best run of one side against the
    best of the other, which a load arriving between them decides: the
    instrumented run must keep within the bound of its adjacent null
    run in most pairs.  A real regression (per-sample allocation,
    formatting, locking) slows every instrumented run, so it fails
    every pair.  (Profiled: the recorder itself costs ~10 ms of a small
    campaign, well under 1%.)
    """
    pairs = observed_runs["pairs"]
    within = [obs_s <= null_s * 1.05 + 0.15 for null_s, obs_s in pairs]
    assert sum(within) > len(pairs) // 2, (
        "instrumented vs null small campaign (s): "
        + ", ".join(f"{obs_s:.3f} vs {null_s:.3f}" for null_s, obs_s in pairs)
    )


def test_campaign_metrics_cover_channels(observed_runs):
    reg = observed_runs["recorder"].registry
    # small: 3900 s drive cap, 30 s test windows every 60 s -> 65 windows,
    # and channels are sampled once per second inside each window.
    seconds = 65 * 30
    tests_per_network = observed_runs["obs_dataset"].num_tests // len(NETWORKS)
    assert seconds == tests_per_network * 30
    for network in NETWORKS:
        assert reg.value("channel.samples", network=network) == seconds
    total_outage = sum(m.value for m in reg.by_name("channel.outage_seconds"))
    assert 0 < total_outage < seconds * len(NETWORKS)
    assert reg.value("campaign.drives_completed") == 1.0
    assert reg.value("campaign.tests") == observed_runs["obs_dataset"].num_tests


def test_campaign_writes_manifest_next_to_checkpoint(observed_runs):
    manifest = RunManifest.load_json(observed_runs["manifest_path"])
    campaign = observed_runs["campaign"]
    assert manifest.fingerprint == campaign.config.fingerprint()
    assert manifest.drives and manifest.drives[0]["route"] == "interstate-0"
    assert manifest.drives[0]["duration_s"] > 0
    assert "campaign.drive" in manifest.timings
    assert manifest.total("channel.samples") == 65 * 30 * len(NETWORKS)
    assert manifest.extra["num_tests"] == observed_runs["obs_dataset"].num_tests
    assert campaign.manifest is not None
    assert campaign.manifest.fingerprint == manifest.fingerprint


def test_cli_summary_renders_campaign_manifest(observed_runs, capsys):
    assert obs_main(["summary", observed_runs["manifest_path"]]) == 0
    out = capsys.readouterr().out
    assert "per-drive wall-clock" in out
    assert "channel outage seconds" in out
    assert "interstate-0" in out
    assert "span timings" in out


def test_cli_prom_renders_exposition(observed_runs, capsys):
    assert obs_main(["prom", observed_runs["manifest_path"]]) == 0
    out = capsys.readouterr().out
    samples = parse_prometheus_text(out)
    assert samples[("channel_samples_total", (("network", "RM"),))] == 65 * 30.0


def test_cli_summary_reads_jsonl(populated_recorder, tmp_path, capsys):
    path = tmp_path / "dump.jsonl"
    write_jsonl(populated_recorder, path)
    assert obs_main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "channel samples" in out


def test_cli_errors_on_missing_artifact(capsys):
    assert obs_main(["summary", "/nonexistent/nowhere.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_summary_includes_des_metrics():
    rec = ObsRecorder()
    rec.counter("sim.events_fired").inc(1234)
    manifest = RunManifest.from_recorder(rec, fingerprint="f")
    out = render_summary(manifest)
    assert "DES events fired" in out
    assert "1234" in out or "1.2" in out
