"""Self-healing campaign execution: retries, watchdog, integrity.

The contract under test: the healing machinery is invisible in the
artifacts.  A run that survives transient drive failures, a hung drive
the watchdog kills and requeues, and a corrupted-then-salvaged
checkpoint produces a dataset, checkpoint, report, and deterministic
manifest byte-identical to a clean serial run — while every healing
event is visible in the obs snapshot and ``CampaignReport.resilience``.

Worker-side failure injection patches ``Campaign._simulate_drive`` at
class level (the pool's fork workers inherit it), keyed off
``campaign.current_attempt`` so only chosen attempts fail.
"""

import json
import os
import shutil
import signal
import time

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dataset import DriveDataset
from repro.obs import ObsRecorder
from repro.resilience import (
    ArtifactCorruptError,
    CampaignAborted,
    FailureClass,
    ResilienceConfig,
    RetryPolicy,
    TransientDriveError,
    classify_exception,
    classify_failure,
    embed_digest,
    payload_digest,
    quarantine,
    verify_digest,
)
from repro.rng import RngStreams
from repro.store import MANIFEST_NAME, ShardStore, shard_name
from tests.helpers import store_bytes


def _config(seed=11, drives=2, **overrides):
    base = dict(
        seed=seed,
        num_interstate_drives=drives,
        num_city_drives=0,
        max_drive_seconds=240.0,
        test_duration_s=30.0,
        window_period_s=40.0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _fast_resilience(**overrides):
    base = dict(retry=RetryPolicy(max_attempts=3, base_delay_s=0.01))
    base.update(overrides)
    return ResilienceConfig(**base)


# -- taxonomy ------------------------------------------------------------


def test_failure_classification():
    assert classify_exception(TimeoutError("t")) is FailureClass.TRANSIENT
    assert classify_exception(ConnectionResetError("r")) is FailureClass.TRANSIENT
    assert classify_exception(TransientDriveError("x")) is FailureClass.TRANSIENT
    assert classify_exception(OSError("disk")) is FailureClass.TRANSIENT
    assert classify_exception(ValueError("bad config")) is FailureClass.PERMANENT
    assert classify_exception(KeyError("k")) is FailureClass.PERMANENT
    # By type name (how worker-side failures travel).
    assert classify_failure("BrokenPipeError") is FailureClass.TRANSIENT
    assert classify_failure("DriveTimeout") is FailureClass.TRANSIENT
    assert classify_failure("WorkerDied") is FailureClass.TRANSIENT
    assert classify_failure("ZeroDivisionError") is FailureClass.PERMANENT


def test_campaign_aborted_is_keyboard_interrupt():
    """Drive isolation catches Exception; an abort must escape it."""
    assert issubclass(CampaignAborted, KeyboardInterrupt)
    assert issubclass(ArtifactCorruptError, ValueError)


# -- retry policy --------------------------------------------------------


def test_retry_policy_backoff_deterministic():
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, backoff=2.0, jitter=0.1)
    rng_a = RngStreams(3).get("resilience.retry.0")
    rng_b = RngStreams(3).get("resilience.retry.0")
    delays_a = [policy.delay_s(i, rng_a) for i in (1, 2, 3)]
    delays_b = [policy.delay_s(i, rng_b) for i in (1, 2, 3)]
    assert delays_a == delays_b  # same seeded stream, same pacing
    # Exponential shape survives the +/-10% jitter.
    assert 0.45 <= delays_a[0] <= 0.55
    assert 0.9 <= delays_a[1] <= 1.1
    assert 1.8 <= delays_a[2] <= 2.2


def test_retry_policy_caps_and_validates():
    policy = RetryPolicy(base_delay_s=10.0, backoff=10.0, max_delay_s=25.0, jitter=0.0)
    assert policy.delay_s(3) == 25.0
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        ResilienceConfig(drive_timeout_s=0)
    with pytest.raises(ValueError):
        ResilienceConfig(heartbeat_timeout_s=0.1, heartbeat_interval_s=0.5)
    with pytest.raises(ValueError):
        CampaignConfig(resilience="retry please")


_NON_FINITE_FIELDS = [
    (RetryPolicy, "base_delay_s"),
    (RetryPolicy, "backoff"),
    (RetryPolicy, "max_delay_s"),
    (ResilienceConfig, "drive_timeout_s"),
    (ResilienceConfig, "heartbeat_interval_s"),
    (ResilienceConfig, "heartbeat_timeout_s"),
    (ResilienceConfig, "poll_interval_s"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls,field", _NON_FINITE_FIELDS, ids=[f for _, f in _NON_FINITE_FIELDS]
)
def test_policy_refuses_non_finite(cls, field, value):
    # NaN passes every ``<= 0`` comparison; a NaN drive deadline would
    # leave the watchdog silently disarmed.
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**{field: value})


def test_resilience_excluded_from_fingerprint():
    """Healed checkpoints must resume under any resilience setting."""
    assert (
        _config().fingerprint()
        == _config(resilience=_fast_resilience()).fingerprint()
    )


# -- integrity primitives ------------------------------------------------


def test_payload_digest_ignores_embedded_digest():
    payload = {"b": 2, "a": [1.5, "x"]}
    digest = payload_digest(payload)
    embed_digest(payload)
    assert payload["digest"] == digest
    assert payload_digest(payload) == digest  # digest key excluded
    assert verify_digest(payload)
    payload["a"][0] = 1.6
    assert not verify_digest(payload)
    assert verify_digest({"no": "digest"})  # absent digest: legacy pass


def test_quarantine_moves_file_aside(tmp_path):
    victim = tmp_path / "ckpt.json"
    victim.write_text("{broken")
    target = quarantine(victim)
    assert target == f"{victim}.corrupt"
    assert not victim.exists()
    assert (tmp_path / "ckpt.json.corrupt").read_text() == "{broken"


def test_quarantine_never_clobbers_earlier_evidence(tmp_path):
    victim = tmp_path / "ckpt.json"
    targets = []
    for generation in range(3):
        victim.write_text(f"{{broken-{generation}")
        targets.append(quarantine(victim))
    assert targets == [
        f"{victim}.corrupt",
        f"{victim}.corrupt.1",
        f"{victim}.corrupt.2",
    ]
    # Every quarantined generation survives, none overwritten.
    for generation, target in enumerate(targets):
        assert open(target).read() == f"{{broken-{generation}"


# -- checkpoint durability and validation --------------------------------


def _dummy_payloads():
    return {
        0: {
            "records": [],
            "trace_minutes": 1.0,
            "distance_km": 2.0,
            "area_counts": {},
            "fault_seconds": {},
            "fault_outage_seconds": 0,
        }
    }


def test_write_checkpoint_failure_leaves_no_tmp_and_keeps_previous(
    tmp_path, monkeypatch
):
    root = tmp_path / "ck"
    store = ShardStore(root, "fp")
    store.commit(_dummy_payloads(), lambda records: records)
    before = store_bytes(root)

    def explode(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.store.commit.os.fsync", explode)
    payloads = {**_dummy_payloads(), 1: _dummy_payloads()[0]}
    with pytest.raises(OSError):
        store.commit(payloads, lambda records: records)
    assert store_bytes(root) == before  # previous commit intact, no .tmp


def _committed_store(tmp_path, fingerprint="fp"):
    root = tmp_path / "ck"
    ShardStore(root, fingerprint).commit(_dummy_payloads(), lambda records: records)
    return root, root / MANIFEST_NAME


def test_load_checkpoint_rejects_truncated_json(tmp_path):
    root, manifest = _committed_store(tmp_path)
    manifest.write_text(manifest.read_text()[:50])
    loaded, recovery = ShardStore(root, "fp").load()
    assert loaded == {}
    assert recovery.manifest_quarantined == f"{manifest}.corrupt"
    assert "not valid JSON" in recovery.manifest_error


def test_load_checkpoint_rejects_missing_keys(tmp_path):
    root, manifest = _committed_store(tmp_path)
    manifest.write_text(json.dumps({"fingerprint": "fp"}))
    loaded, recovery = ShardStore(root, "fp").load()
    assert loaded == {}
    assert recovery.manifest_quarantined == f"{manifest}.corrupt"
    assert "missing required keys" in recovery.manifest_error


def test_load_checkpoint_version_and_fingerprint_still_value_errors(tmp_path):
    """Operator error (old version, wrong config) must not be mistaken
    for corruption: it raises, and the manifest stays where it is."""
    root, manifest = _committed_store(tmp_path)
    raw = json.loads(manifest.read_text())
    raw.pop("digest")
    raw["version"] = 99
    manifest.write_text(json.dumps(embed_digest(raw)))
    with pytest.raises(ValueError, match="version") as excinfo:
        ShardStore(root, "fp").load()
    assert not isinstance(excinfo.value, ArtifactCorruptError)
    assert manifest.exists()

    root, manifest = _committed_store(tmp_path / "other", fingerprint="fp-a")
    with pytest.raises(ValueError, match="different") as excinfo:
        ShardStore(root, "fp-b").load()
    assert not isinstance(excinfo.value, ArtifactCorruptError)
    assert manifest.exists()


def test_dataset_and_manifest_digests(tmp_path):
    recorder = ObsRecorder()
    campaign = Campaign(_config(drives=1), recorder=recorder)
    ckpt = tmp_path / "ck"
    dataset = campaign.run(checkpoint_path=ckpt)

    data = tmp_path / "d.json"
    dataset.save_json(data)
    reloaded = DriveDataset.load_json(data)  # digest verifies
    assert reloaded.num_tests == dataset.num_tests
    payload = json.loads(data.read_text())
    payload["distance_km"] += 1.0
    data.write_text(json.dumps(payload))
    with pytest.raises(ArtifactCorruptError, match="digest"):
        DriveDataset.load_json(data)

    from repro.obs import RunManifest

    manifest_path = tmp_path / "ck.manifest.json"
    assert manifest_path.exists()
    RunManifest.load_json(manifest_path)  # digest verifies
    raw = json.loads(manifest_path.read_text())
    raw["fingerprint"] = "tampered"
    manifest_path.write_text(json.dumps(raw))
    with pytest.raises(ArtifactCorruptError, match="digest"):
        RunManifest.load_json(manifest_path)


# -- serial retries ------------------------------------------------------


#: The pristine drive simulator, captured before any test patches it.
_ORIGINAL_SIMULATE = Campaign._simulate_drive


class _Hang:
    """Marker: instead of raising, park the attempt until the watchdog
    kills the worker."""


def _flaky_simulate(fail_on):
    """A ``_simulate_drive`` wrapper misbehaving per (drive_id, attempt).

    Values in ``fail_on`` are exceptions to raise or :class:`_Hang` to
    sleep forever.  Patched onto the class so the supervised pool's
    fork workers inherit it.
    """

    def flaky(self, drive_id, route):
        exc = fail_on.get((drive_id, self.current_attempt))
        if isinstance(exc, _Hang):
            time.sleep(600.0)  # parked until the watchdog SIGKILLs us
        if exc is not None:
            raise exc
        return _ORIGINAL_SIMULATE(self, drive_id, route)

    return flaky


def test_serial_retry_heals_transient_failure(tmp_path):
    reference = Campaign(_config()).run()
    ref_json = tmp_path / "ref.json"
    reference.save_json(ref_json)

    recorder = ObsRecorder()
    config = _config(resilience=_fast_resilience())
    campaign = Campaign(config, recorder=recorder)
    Campaign._simulate_drive = _flaky_simulate(
        {(1, 0): ConnectionResetError("transient uplink glitch")}
    )
    try:
        dataset = campaign.run()
    finally:
        Campaign._simulate_drive = _ORIGINAL_SIMULATE
    healed_json = tmp_path / "healed.json"
    dataset.save_json(healed_json)

    assert healed_json.read_bytes() == ref_json.read_bytes()
    assert campaign.report.ok
    assert campaign.report.resilience["retries"] == 1
    assert (
        recorder.registry.value(
            "resilience.retries", kind="ConnectionResetError"
        )
        == 1
    )
    [attempts] = recorder.registry.by_name("resilience.drive_attempts")
    assert attempts.count == 2  # one retried drive + one clean


def test_serial_permanent_failure_not_retried():
    recorder = ObsRecorder()
    campaign = Campaign(_config(resilience=_fast_resilience()), recorder=recorder)
    Campaign._simulate_drive = _flaky_simulate(
        {
            (0, 0): ValueError("bad geometry"),
            (0, 1): ValueError("bad geometry"),
            (0, 2): ValueError("bad geometry"),
        }
    )
    try:
        campaign.run()
    finally:
        Campaign._simulate_drive = _ORIGINAL_SIMULATE
    assert campaign.report.resilience["retries"] == 0
    [failure] = campaign.report.failures
    assert failure.drive_id == 0
    assert failure.error_type == "ValueError"


def test_serial_retry_budget_exhausted():
    recorder = ObsRecorder()
    campaign = Campaign(
        _config(drives=1, resilience=_fast_resilience()), recorder=recorder
    )
    Campaign._simulate_drive = _flaky_simulate(
        {(0, a): TimeoutError(f"attempt {a}") for a in range(5)}
    )
    try:
        campaign.run()
    finally:
        Campaign._simulate_drive = _ORIGINAL_SIMULATE
    assert campaign.report.resilience["retries"] == 2  # max_attempts=3
    [failure] = campaign.report.failures
    assert failure.error_type == "TimeoutError"
    assert failure.message == "attempt 2"  # the last attempt's error


def test_abort_is_not_swallowed_by_retry():
    campaign = Campaign(_config(drives=1, resilience=_fast_resilience()))
    Campaign._simulate_drive = _flaky_simulate(
        {(0, 0): CampaignAborted("operator interrupt")}
    )
    try:
        with pytest.raises(CampaignAborted):
            campaign.run()
    finally:
        Campaign._simulate_drive = _ORIGINAL_SIMULATE


# -- graceful shutdown ---------------------------------------------------


def test_sigterm_checkpoints_then_aborts_and_resumes(tmp_path):
    ref = tmp_path / "ref.json"
    Campaign(_config()).run().save_json(ref)

    original = Campaign._simulate_drive

    def signalling(self, drive_id, route):
        payload = original(self, drive_id, route)
        if drive_id == 0:
            os.kill(os.getpid(), signal.SIGTERM)
        return payload

    ckpt = tmp_path / "ck"
    campaign = Campaign(_config())
    Campaign._simulate_drive = signalling
    try:
        with pytest.raises(CampaignAborted, match="checkpointed"):
            campaign.run(checkpoint_path=ckpt)
    finally:
        Campaign._simulate_drive = original

    # Drive 0 survived to the checkpoint; the handler was uninstalled.
    loaded, _ = ShardStore(ckpt, _config().fingerprint()).load()
    assert set(loaded) == {0}
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    resumed = Campaign(_config())
    out = tmp_path / "resumed.json"
    resumed.run(checkpoint_path=ckpt).save_json(out)
    assert out.read_bytes() == ref.read_bytes()
    assert resumed.report.drives_resumed == 1


# -- corrupt checkpoint: quarantine + salvage + resume -------------------


def test_corrupt_checkpoint_quarantined_salvaged_resumed(tmp_path):
    # Instrumented on both sides: the store manifest carries per-drive
    # metric snapshots, and salvage must restore them byte-for-byte.
    config = _config(drives=3)
    ref = tmp_path / "ref.json"
    ref_ckpt = tmp_path / "ref.ck"
    Campaign(config, recorder=ObsRecorder()).run(
        checkpoint_path=ref_ckpt
    ).save_json(ref)

    # Truncate drive 2's shard in a copy: drives 0-1 stay intact.
    ckpt = tmp_path / "ck"
    shutil.copytree(ref_ckpt, ckpt)
    victim = ckpt / shard_name(2)
    torn = victim.read_bytes()[:-40]
    victim.write_bytes(torn)

    recorder = ObsRecorder()
    campaign = Campaign(config, recorder=recorder)
    out = tmp_path / "healed.json"
    campaign.run(checkpoint_path=ckpt).save_json(out)

    assert out.read_bytes() == ref.read_bytes()
    healed = store_bytes(ckpt)  # rewritten clean, damage kept aside
    assert healed.pop(shard_name(2) + ".corrupt") == torn
    assert healed == store_bytes(ref_ckpt)
    res = campaign.report.resilience
    assert res["integrity_failures"] == 1
    assert res["drives_salvaged"] == 2
    assert campaign.report.drives_resumed == 2
    assert (
        recorder.registry.value("resilience.integrity_failures", artifact="shard")
        == 1
    )
    assert recorder.registry.value("resilience.drives_salvaged") == 2


# -- the keystone: golden equivalence under adversity --------------------


@pytest.mark.parametrize("workers", [2])
def test_adversity_run_byte_identical_to_clean(tmp_path, workers):
    """Transient worker failure + hung drive (watchdog-killed, requeued)
    + corrupted-then-salvaged checkpoint, all in one parallel run —
    dataset, checkpoint, report, and deterministic manifest match a
    clean serial run byte for byte, and every healing event is visible
    in the obs snapshot."""
    config = _config(drives=3)

    # Clean serial reference.
    ref_rec = ObsRecorder()
    reference = Campaign(config, recorder=ref_rec)
    ref_ckpt = tmp_path / "ref.ck"
    ref_data = tmp_path / "ref.json"
    reference.run(checkpoint_path=ref_ckpt).save_json(ref_data)
    ref_report = reference.report.to_dict()

    # Seed a corrupted checkpoint: drive 0 salvageable, drive 1's
    # shard torn, drive 2's shard lost.
    ckpt = tmp_path / "adv.ck"
    shutil.copytree(ref_ckpt, ckpt)
    torn = ckpt / shard_name(1)
    torn.write_bytes(torn.read_bytes()[:200])
    (ckpt / shard_name(2)).unlink()

    adv_config = _config(
        drives=3,
        workers=workers,
        resilience=_fast_resilience(
            drive_timeout_s=20.0, poll_interval_s=0.02
        ),
    )
    adv_rec = ObsRecorder()
    campaign = Campaign(adv_config, recorder=adv_rec)
    Campaign._simulate_drive = _flaky_simulate(
        {
            # Transient failure on drive 1's first attempt.
            (1, 0): BrokenPipeError("worker lost its socket"),
            # Drive 2's first attempt hangs past the 20 s deadline.
            (2, 0): _Hang(),
        }
    )
    try:
        adv_data = tmp_path / "adv.json"
        campaign.run(checkpoint_path=ckpt).save_json(adv_data)
    finally:
        Campaign._simulate_drive = _ORIGINAL_SIMULATE

    # Artifacts: byte-identical to the clean run.
    assert adv_data.read_bytes() == ref_data.read_bytes()
    adv_store = store_bytes(ckpt)
    assert adv_store.pop(shard_name(1) + ".corrupt")
    assert adv_store == store_bytes(ref_ckpt)
    assert (
        campaign.manifest.deterministic_blob()
        == reference.manifest.deterministic_blob()
    )
    adv_report = campaign.report.to_dict()
    for report in (ref_report, adv_report):
        report.pop("checkpoint_path")
        report.pop("resilience")
        report.pop("drives_resumed")
    assert adv_report == ref_report

    # Healing events: all visible.
    res = campaign.report.resilience
    assert res["retries"] >= 2  # the broken pipe + the killed attempt
    assert res["watchdog_kills"] >= 1
    assert res["integrity_failures"] == 1
    assert res["drives_salvaged"] == 1
    snapshot = {entry["name"] for entry in adv_rec.registry.snapshot()}
    assert "resilience.retries" in snapshot
    assert "resilience.watchdog_kills" in snapshot
    assert "resilience.drive_attempts" in snapshot
    assert adv_rec.registry.value("resilience.drives_salvaged") == 1
