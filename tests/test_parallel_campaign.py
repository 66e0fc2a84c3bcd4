"""Parallel drive-sharded campaign execution.

The contract under test: a campaign run with any ``workers`` count
produces **byte-identical** artifacts to a serial run — dataset JSON,
checkpoint store, campaign report, and the deterministic view of the run
manifest — while failures stay isolated, obs metrics merge in drive
order, and a run killed mid-flight resumes (at any worker count) without
re-executing checkpointed drives.  Every parallel run goes through the
supervised pool, so a worker that dies costs its drive (``WorkerDied``),
never the run, and an abort raised inside a worker stops the run as it
would a serial one.

The golden equivalence test honours ``REPRO_EQUIV_WORKERS`` (default 4)
so CI can bound runtime by running it at 2 workers.
"""

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import DriveDataset, record_to_dict
from repro.faults import FaultInjector, generate_schedule
from repro.obs import (
    MetricsRegistry,
    NULL_RECORDER,
    ObsRecorder,
)
from repro.resilience import CampaignAborted, ResilienceConfig, RetryPolicy
from repro.store import MANIFEST_NAME, ShardStore
from tests.helpers import store_bytes

#: Worker count for the golden equivalence test (CI pins this to 2).
EQUIV_WORKERS = int(os.environ.get("REPRO_EQUIV_WORKERS", "4"))


def _grid_config(seed=7, drives=3, workers=1, faults=False, **overrides):
    base = dict(
        seed=seed,
        num_interstate_drives=drives,
        num_city_drives=0,
        max_drive_seconds=240.0,
        test_duration_s=30.0,
        window_period_s=40.0,
        workers=workers,
    )
    base.update(overrides)
    config = CampaignConfig(**base)
    if faults:
        config.fault_schedule = generate_schedule(
            seed=seed, num_drives=drives, drive_duration_s=240.0, intensity=3.0
        )
    return config


# -- config surface ------------------------------------------------------


def test_workers_validated():
    with pytest.raises(ValueError):
        CampaignConfig(workers=0)
    with pytest.raises(ValueError):
        CampaignConfig(workers=-2)


def test_workers_excluded_from_fingerprint():
    """Serial checkpoints must resume under any worker count."""
    assert (
        _grid_config(workers=1).fingerprint()
        == _grid_config(workers=8).fingerprint()
    )


# -- the keystone: serial-vs-parallel golden equivalence -----------------


def test_parallel_run_byte_identical_to_serial(tmp_path):
    """``CampaignConfig.small``-style drives at workers=1 vs workers=N:
    checkpoint store, dataset JSON, report, and deterministic manifest
    agree byte for byte."""
    artifacts = {}
    for label, workers in (("serial", 1), ("parallel", EQUIV_WORKERS)):
        recorder = ObsRecorder()
        campaign = Campaign(
            _grid_config(workers=workers, faults=True), recorder=recorder
        )
        ckpt = tmp_path / f"{label}.store"
        dataset = campaign.run(checkpoint_path=ckpt)
        data = tmp_path / f"{label}.dataset.json"
        dataset.save_json(data)
        report = campaign.report.to_dict()
        assert report.pop("checkpoint_path") == os.fspath(ckpt)
        artifacts[label] = {
            "ckpt": store_bytes(ckpt),
            "dataset": data.read_bytes(),
            "report": report,
            "manifest": campaign.manifest.deterministic_blob(),
            "num_tests": dataset.num_tests,
        }

    serial, parallel = artifacts["serial"], artifacts["parallel"]
    assert serial["num_tests"] > 0
    assert serial["ckpt"] == parallel["ckpt"]
    assert serial["dataset"] == parallel["dataset"]
    assert serial["report"] == parallel["report"]
    assert serial["manifest"] == parallel["manifest"]


def test_parallel_merges_obs_and_fault_accounting():
    """Worker metric snapshots and injector accounting land in the parent
    exactly as a serial run accumulates them (counters are integer-valued,
    so drive-order merge is float-exact)."""
    serial_rec, parallel_rec = ObsRecorder(), ObsRecorder()
    serial = Campaign(_grid_config(faults=True), recorder=serial_rec)
    serial.run()
    parallel = Campaign(
        _grid_config(workers=2, faults=True), recorder=parallel_rec
    )
    parallel.run()

    assert serial.report.fault_seconds == parallel.report.fault_seconds
    assert (
        serial.report.fault_outage_seconds
        == parallel.report.fault_outage_seconds
    )

    def deterministic(registry):
        from repro.obs import WALL_CLOCK_METRICS

        return [
            m
            for m in registry.snapshot()
            if m["name"] not in WALL_CLOCK_METRICS
        ]

    assert deterministic(serial_rec.registry) == deterministic(
        parallel_rec.registry
    )
    # The parallel run still traces per-drive spans (worker-measured).
    assert len(parallel_rec.tracer.by_name("campaign.drive")) == 3


def test_parallel_drive_failure_isolated():
    """One drive raising in a worker becomes a DriveFailure; the other
    drives' data survives, numbered identically to a serial run."""
    reference = Campaign(_grid_config()).run()

    original = Campaign._simulate_drive

    def flaky(self, drive_id, route):
        if drive_id == 1:
            raise RuntimeError("dish fell off in a worker")
        return original(self, drive_id, route)

    Campaign._simulate_drive = flaky
    try:
        campaign = Campaign(_grid_config(workers=2))
        dataset = campaign.run()
    finally:
        Campaign._simulate_drive = original

    report = campaign.report
    assert not report.ok
    assert report.drives_completed == 2
    assert [f.drive_id for f in report.failures] == [1]
    assert report.failures[0].error_type == "RuntimeError"
    assert "dish fell off" in report.failures[0].message
    assert "RuntimeError" in report.failures[0].traceback
    surviving = [r for r in reference.records if r.drive_id != 1]
    assert [r.samples for r in dataset.records] == [
        r.samples for r in surviving
    ]


# -- resume under parallelism --------------------------------------------


def test_kill_mid_parallel_run_resumes_without_rerunning(tmp_path):
    """Kill a parallel run after drive k (via the fault injector), resume
    at a different worker count: checkpointed drives never re-execute and
    the final dataset matches an uninterrupted run byte for byte."""
    ckpt = tmp_path / "ckpt"
    ref, res = tmp_path / "ref.json", tmp_path / "res.json"
    Campaign(_grid_config(faults=True)).run().save_json(ref)

    original = FaultInjector.sample

    def killer(self, time_s, position, speed_kmh, area):
        if self.drive_id >= 2:
            raise KeyboardInterrupt
        return original(self, time_s, position, speed_kmh, area)

    # Drive 2 only starts once a first drive completed (2 workers, 3
    # drives), so the checkpoint is non-empty when the kill lands.
    FaultInjector.sample = killer
    try:
        with pytest.raises(KeyboardInterrupt):
            Campaign(_grid_config(workers=2, faults=True)).run(
                checkpoint_path=ckpt
            )
    finally:
        FaultInjector.sample = original

    manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
    completed = {int(k) for k in manifest["drives"]}
    assert completed and 2 not in completed

    def poison(self, time_s, position, speed_kmh, area):
        if self.drive_id in completed:
            raise RuntimeError("re-ran a checkpointed drive")
        return original(self, time_s, position, speed_kmh, area)

    FaultInjector.sample = poison
    try:
        resumed = Campaign(_grid_config(workers=3, faults=True))
        dataset = resumed.run(checkpoint_path=ckpt)
    finally:
        FaultInjector.sample = original

    assert resumed.report.drives_resumed == len(completed)
    assert resumed.report.drives_failed == 0
    dataset.save_json(res)
    assert ref.read_bytes() == res.read_bytes()


# -- one executor: worker death, aborts, SIGTERM, attempt accounting ----


def _dying_worker_run(out_dir):
    """Child-process body: an unresilient workers=2 run whose drive-1
    worker dies outright; the dataset and failures land in ``out_dir``."""
    original = Campaign._simulate_drive

    def dying(self, drive_id, route):
        if drive_id == 1:
            os._exit(3)  # no exception, no cleanup: an OOM kill's footprint
        return original(self, drive_id, route)

    Campaign._simulate_drive = dying
    campaign = Campaign(_grid_config(workers=2))
    campaign.run().save_json(os.path.join(out_dir, "dataset.json"))
    with open(os.path.join(out_dir, "failures.json"), "w") as handle:
        json.dump([f.to_dict() for f in campaign.report.failures], handle)


def test_worker_death_is_a_drive_failure_not_a_hang(tmp_path):
    """A worker that dies mid-drive costs that drive, never the run.

    The campaign runs in a child process joined with a timeout, so an
    executor that hangs on a dead worker fails this test instead of
    stalling the suite."""
    reference = Campaign(_grid_config()).run()

    child = multiprocessing.get_context("fork").Process(
        target=_dying_worker_run, args=(os.fspath(tmp_path),)
    )
    child.start()
    child.join(180.0)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("campaign hung after a worker died")
    assert child.exitcode == 0

    failures = json.loads((tmp_path / "failures.json").read_text())
    assert [(f["drive_id"], f["error_type"]) for f in failures] == [
        (1, "WorkerDied")
    ]
    dataset = DriveDataset.load_json(tmp_path / "dataset.json")
    assert [record_to_dict(r) for r in dataset.records] == [
        record_to_dict(r) for r in reference.records if r.drive_id != 1
    ]


def test_worker_abort_forwarded_never_retried(tmp_path):
    """A ``KeyboardInterrupt`` inside a worker stops the run with
    ``CampaignAborted`` once completed drives are committed, even under
    a retry budget: it is not retried and not a drive failure."""
    marker = tmp_path / "attempts"
    original = Campaign._simulate_drive

    def interrupted(self, drive_id, route):
        if drive_id == 2:
            with open(marker, "a") as handle:
                handle.write(f"{self.current_attempt}\n")
            raise KeyboardInterrupt
        return original(self, drive_id, route)

    store = tmp_path / "store"
    config = _grid_config(
        workers=2,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        ),
    )
    campaign = Campaign(config)
    Campaign._simulate_drive = interrupted
    try:
        with pytest.raises(CampaignAborted, match="KeyboardInterrupt"):
            campaign.run(checkpoint_path=store)
    finally:
        Campaign._simulate_drive = original

    assert marker.read_text() == "0\n"
    assert campaign.report is None
    assert campaign._resilience.retries == 0
    # Drive 2 only starts once a first drive completed (2 workers, 3
    # drives), so the store holds at least that one.
    committed, _ = ShardStore(os.fspath(store), config.fingerprint()).load()
    assert committed and 2 not in committed


def test_sigterm_kills_the_worker_not_waits_for_the_watchdog():
    """A worker terminated mid-drive dies at once (``WorkerDied``); it
    does not inherit the parent's flag-only SIGTERM handler and run on
    until the drive deadline."""
    original = Campaign._simulate_drive

    def terminated(self, drive_id, route):
        if drive_id == 1:
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(600.0)  # parked: only a kill ends this attempt
        return original(self, drive_id, route)

    deadline_s = 20.0
    campaign = Campaign(
        _grid_config(
            workers=2,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), drive_timeout_s=deadline_s
            ),
        )
    )
    Campaign._simulate_drive = terminated
    started = time.monotonic()
    try:
        campaign.run()
    finally:
        Campaign._simulate_drive = original
    elapsed = time.monotonic() - started

    [failure] = campaign.report.failures
    assert (failure.drive_id, failure.error_type) == (1, "WorkerDied")
    assert campaign.report.resilience["watchdog_kills"] == 0
    assert elapsed < deadline_s / 2


@pytest.mark.parametrize("workers", [1, 2])
def test_drive_attempts_observed_once_per_drive(workers):
    """Serial and parallel runs without a resilience config record one
    ``resilience.drive_attempts`` observation per drive, outside the
    deterministic manifest view."""
    recorder = ObsRecorder()
    campaign = Campaign(_grid_config(workers=workers), recorder=recorder)
    campaign.run()
    [attempts] = recorder.registry.by_name("resilience.drive_attempts")
    assert attempts.count == 3
    assert attempts.total == 3.0
    deterministic = campaign.manifest.deterministic_dict()["metrics"]
    assert "resilience.drive_attempts" not in {m["name"] for m in deterministic}


# -- obs merge + pickling units ------------------------------------------


def test_registry_merge_semantics():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c", network="RM").inc(3)
    b.counter("c", network="RM").inc(4)
    a.gauge("g").set(1.0)
    b.gauge("g").set(2.0)
    ha = a.histogram("h", buckets=(1.0, 10.0))
    hb = b.histogram("h", buckets=(1.0, 10.0))
    ha.observe(0.5)
    hb.observe(5.0)
    hb.observe(50.0)

    a.merge(b.snapshot())
    assert a.value("c", network="RM") == 7.0
    assert a.value("g") == 2.0  # last write wins
    merged = a.histogram("h", buckets=(1.0, 10.0))
    assert merged.counts == [1, 1, 1]
    assert merged.count == 3
    assert merged.total == pytest.approx(55.5)


def test_registry_merge_rejects_bucket_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
    b.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
    with pytest.raises(ValueError, match="bucket mismatch"):
        a.merge(b.snapshot())


def test_merge_snapshots_function():
    regs = []
    for value in (1, 2, 4):
        reg = MetricsRegistry()
        reg.counter("c").inc(value)
        reg.gauge("g").set(value)
        regs.append(reg.snapshot())
    merged = MetricsRegistry()
    for snapshot in regs:
        merged.merge(snapshot)
    by_name = {(m["name"], m["type"]): m for m in merged.snapshot()}
    assert by_name[("c", "counter")]["value"] == 7.0
    assert by_name[("g", "gauge")]["value"] == 4.0


def test_null_recorder_pickles_to_singleton():
    clone = pickle.loads(pickle.dumps(NULL_RECORDER))
    assert clone is NULL_RECORDER


def test_obs_recorder_pickles_with_state():
    recorder = ObsRecorder()
    recorder.counter("c", k="v").inc(5)
    recorder.histogram("h", buckets=(1.0,)).observe(0.5)
    with recorder.span("s"):
        pass
    clone = pickle.loads(pickle.dumps(recorder))
    assert clone.registry.snapshot() == recorder.registry.snapshot()
    assert [s.to_dict() for s in clone.tracer.spans] == [
        s.to_dict() for s in recorder.tracer.spans
    ]
