"""Resilient campaign orchestration: validation, isolation, checkpoint/resume,
fault-injection determinism, and the report."""

import json
import os

import pytest

from repro.conditions import LinkConditions
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    DriveFailure,
    TEST_ID_STRIDE,
    TestKind,
)
from repro.geo.classify import AreaType
from repro.geo.routes import Route
from repro.tools.tracker import TrackerRecord
from repro.faults import FaultSchedule, SatelliteOutage, generate_schedule
from repro.resilience import embed_digest
from repro.store import MANIFEST_NAME


def _tiny_config(seed=7, drives=2, **overrides):
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


# -- config validation ---------------------------------------------------


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        CampaignConfig(seed=-1)
    with pytest.raises(ValueError):
        CampaignConfig(num_interstate_drives=-1)
    with pytest.raises(ValueError):
        CampaignConfig(max_drive_seconds=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(test_duration_s=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(window_period_s=-5.0)
    with pytest.raises(ValueError):
        CampaignConfig(cycle=())
    with pytest.raises(ValueError):
        CampaignConfig(cycle=("udp",))
    with pytest.raises(ValueError):
        CampaignConfig(city_loop_segments=0)
    with pytest.raises(ValueError):
        CampaignConfig(fault_schedule="not a schedule")


def test_test_kind_validation():
    with pytest.raises(ValueError):
        TestKind("quic", "dl")
    with pytest.raises(ValueError):
        TestKind("tcp", "sideways")
    with pytest.raises(ValueError):
        TestKind("tcp", "dl", parallel=0)


def test_config_fingerprint_tracks_content():
    assert _tiny_config().fingerprint() == _tiny_config().fingerprint()
    assert _tiny_config().fingerprint() != _tiny_config(seed=8).fingerprint()
    faulted = _tiny_config(
        fault_schedule=FaultSchedule((SatelliteOutage(start_s=0.0, end_s=5.0),))
    )
    assert faulted.fingerprint() != _tiny_config().fingerprint()


# -- satellite fixes -----------------------------------------------------


def test_empty_city_loop_raises_instead_of_spinning():
    config = CampaignConfig(
        seed=1, num_interstate_drives=0, num_city_drives=1, city_loop_segments=30
    )
    campaign = Campaign(config)
    original = campaign.route_generator.local_loop
    campaign.route_generator.local_loop = lambda name, around: Route(name, [])
    with pytest.raises(ValueError, match="generated no segments"):
        campaign._routes()
    campaign.route_generator.local_loop = original


class _SteppedChannel:
    """Capacity 50 Mbps for 5 s, then 200 Mbps; zero loss."""

    def sample(self, time_s, position, speed_kmh, area):
        return LinkConditions(
            time_s=time_s,
            downlink_mbps=50.0 if time_s < 5.0 else 200.0,
            uplink_mbps=10.0,
            rtt_ms=50.0,
            loss_rate=0.0,
        )

    def reset(self):
        pass


class _FakeTracker:
    def __init__(self, seconds):
        self.records = [
            TrackerRecord(
                time_s=float(t),
                lat_deg=40.0,
                lon_deg=-95.0,
                speed_kmh=80.0,
                area=AreaType.RURAL,
                route_km=float(t) * 0.02,
            )
            for t in range(seconds)
        ]


def test_udp_overdrive_clamps_to_offered_load():
    config = CampaignConfig(
        seed=0,
        test_duration_s=10.0,
        window_period_s=100.0,
        cycle=(TestKind("udp", "dl"),),
    )
    campaign = Campaign(config)
    channels = {n: _SteppedChannel() for n in ("RM", "MOB", "ATT", "TM", "VZ")}
    records, _ = campaign._run_tests(0, _FakeTracker(20), channels, 0)
    samples = next(r for r in records if r.network == "MOB").samples
    # Steady state at 50 Mbps: offered (1.2x estimate) exceeds capacity, so
    # the link saturates at capacity.
    assert samples[1].throughput_mbps == pytest.approx(50.0)
    # At the spike the sender's offered load (anchored to the 50 Mbps
    # estimate) is far below the new 200 Mbps capacity: goodput must be
    # offered-limited, not capacity — the old no-op clamp returned 200.
    assert samples[5].throughput_mbps < 200.0
    # est = 50 + 0.25 * (200 - 50) = 87.5; offered = 1.2 * 87.5 = 105.
    assert samples[5].throughput_mbps == pytest.approx(105.0)
    # The estimate converges: late seconds approach (but never exceed)
    # capacity, and all goodput stays within capacity.
    assert all(s.throughput_mbps <= 200.0 + 1e-9 for s in samples)
    assert samples[-1].throughput_mbps > samples[5].throughput_mbps


# -- per-drive isolation -------------------------------------------------


def test_drive_failure_is_isolated_and_reported():
    campaign = Campaign(_tiny_config())
    original = campaign._simulate_drive

    def flaky(drive_id, route):
        if drive_id == 0:
            raise RuntimeError("dish fell off")
        return original(drive_id, route)

    campaign._simulate_drive = flaky
    dataset = campaign.run()
    report = campaign.report
    assert not report.ok
    assert report.drives_total == 2
    assert report.drives_completed == 1
    assert report.drives_failed == 1
    failure = report.failures[0]
    assert isinstance(failure, DriveFailure)
    assert failure.drive_id == 0
    assert failure.error_type == "RuntimeError"
    assert "dish fell off" in failure.message
    assert "RuntimeError" in failure.traceback
    # The surviving drive's data is intact and correctly numbered.
    assert dataset.num_tests > 0
    assert {r.drive_id for r in dataset.records} == {1}
    assert all(r.test_id >= TEST_ID_STRIDE for r in dataset.records)


def test_surviving_drive_identical_with_and_without_failure():
    clean = Campaign(_tiny_config())
    clean_ds = clean.run()
    flaky = Campaign(_tiny_config())
    original = flaky._simulate_drive

    def boom(drive_id, route):
        if drive_id == 0:
            raise RuntimeError("boom")
        return original(drive_id, route)

    flaky._simulate_drive = boom
    flaky_ds = flaky.run()
    clean_drive1 = [r for r in clean_ds.records if r.drive_id == 1]
    assert [r.samples for r in flaky_ds.records] == [
        r.samples for r in clean_drive1
    ]


# -- checkpoint / resume -------------------------------------------------


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    ckpt = tmp_path / "campaign.store"
    reference = Campaign(_tiny_config()).run()
    ref_json = tmp_path / "ref.json"
    reference.save_json(ref_json)

    interrupted = Campaign(_tiny_config())
    original = interrupted._simulate_drive

    def killed(drive_id, route):
        if drive_id == 1:
            raise KeyboardInterrupt  # not swallowed by drive isolation
        return original(drive_id, route)

    interrupted._simulate_drive = killed
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(checkpoint_path=ckpt)
    assert ckpt.exists()

    resumed = Campaign(_tiny_config())
    dataset = resumed.run(checkpoint_path=ckpt)
    res_json = tmp_path / "resumed.json"
    dataset.save_json(res_json)
    assert ref_json.read_bytes() == res_json.read_bytes()
    assert resumed.report.drives_resumed == 1
    assert resumed.report.drives_completed == 2
    assert resumed.report.checkpoint_path == os.fspath(ckpt)


def test_checkpoint_fingerprint_mismatch_raises(tmp_path):
    ckpt = tmp_path / "campaign.store"
    Campaign(_tiny_config(seed=7)).run(checkpoint_path=ckpt)
    with pytest.raises(ValueError, match="different"):
        Campaign(_tiny_config(seed=8)).run(checkpoint_path=ckpt)


def test_checkpoint_version_mismatch_raises(tmp_path):
    """A digest-valid store manifest from another schema version is
    operator error, not damage: the run refuses to resume from it."""
    ckpt = tmp_path / "campaign.store"
    ckpt.mkdir()
    manifest = {
        "version": 99,
        "fingerprint": _tiny_config().fingerprint(),
        "drives": {},
    }
    (ckpt / MANIFEST_NAME).write_text(json.dumps(embed_digest(manifest)))
    with pytest.raises(ValueError, match="version"):
        Campaign(_tiny_config()).run(checkpoint_path=ckpt)


# -- fault injection end to end -----------------------------------------


def _faulted_config(seed=5):
    config = _tiny_config(seed=seed)
    config.fault_schedule = generate_schedule(
        seed=seed, num_drives=2, drive_duration_s=240.0, intensity=3.0
    )
    return config


def test_faulted_campaign_completes_and_reports(tmp_path):
    campaign = Campaign(_faulted_config())
    dataset = campaign.run()
    report = campaign.report
    assert report.ok
    assert report.num_tests == dataset.num_tests > 0
    assert sum(report.scheduled_faults.values()) == len(
        campaign.config.fault_schedule
    )
    # The report is JSON-serializable end to end.
    out = tmp_path / "report.json"
    report.save_json(out)
    assert json.loads(out.read_text())["drives_total"] == 2


def test_fault_injection_deterministic():
    a = Campaign(_faulted_config()).run()
    b = Campaign(_faulted_config()).run()
    assert [r.samples for r in a.records] == [r.samples for r in b.records]


def test_fault_schedule_changes_output():
    plain = Campaign(_tiny_config(seed=5)).run()
    faulted = Campaign(_faulted_config(seed=5)).run()
    assert [r.samples for r in plain.records] != [r.samples for r in faulted.records]


@pytest.mark.slow
def test_paper_scale_faulted_campaign_completes(tmp_path):
    """Acceptance: paper scale + non-empty schedule runs clean end to end."""
    config = CampaignConfig.paper_scale(seed=1)
    config.fault_schedule = generate_schedule(
        seed=1, num_drives=config.num_drives, drive_duration_s=7200.0
    )
    campaign = Campaign(config)
    dataset = campaign.run(checkpoint_path=tmp_path / "paper.store")
    report = campaign.report
    assert report.ok and not report.failures
    assert dataset.num_tests > 1000
    assert sum(report.fault_seconds.values()) > 0


def test_faulted_checkpoint_resume_identical(tmp_path):
    ckpt = tmp_path / "ckpt"
    ref = tmp_path / "ref.json"
    res = tmp_path / "res.json"
    Campaign(_faulted_config()).run().save_json(ref)

    interrupted = Campaign(_faulted_config())
    original = interrupted._simulate_drive

    def killed(drive_id, route):
        if drive_id == 1:
            raise KeyboardInterrupt
        return original(drive_id, route)

    interrupted._simulate_drive = killed
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(checkpoint_path=ckpt)

    resumed = Campaign(_faulted_config())
    resumed.run(checkpoint_path=ckpt).save_json(res)
    assert ref.read_bytes() == res.read_bytes()
    # Fault accounting covers the resumed drive too (restored from the
    # checkpoint, not recomputed).
    uninterrupted = Campaign(_faulted_config())
    uninterrupted.run()
    assert resumed.report.fault_seconds == uninterrupted.report.fault_seconds
    assert (
        resumed.report.fault_outage_seconds
        == uninterrupted.report.fault_outage_seconds
    )
