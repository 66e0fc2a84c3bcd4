"""Fault events, schedules, generation, and the channel injector."""

import json

import pytest

import repro.core.dataset as dataset_module
from repro.conditions import LinkConditions
from repro.faults import (
    CellSectorOutage,
    FaultInjector,
    FaultSchedule,
    GatewayFailure,
    ObstructionBurst,
    SatelliteOutage,
    WeatherFront,
    event_from_dict,
    generate_schedule,
)
from repro.faults.events import (
    CELLULAR_NETWORKS,
    FaultEffect,
    NETWORKS,
    STARLINK_NETWORKS,
)
from repro.geo.classify import AreaType
from repro.geo.coords import GeoPoint

POSITION = GeoPoint(40.0, -95.0)


def test_network_constants_match_dataset():
    # faults duplicates these to avoid a circular import; keep in sync.
    assert NETWORKS == dataset_module.NETWORKS
    assert STARLINK_NETWORKS == dataset_module.STARLINK_NETWORKS
    assert CELLULAR_NETWORKS == dataset_module.CELLULAR_NETWORKS


def test_event_window_validation():
    with pytest.raises(ValueError):
        SatelliteOutage(start_s=-1.0, end_s=5.0)
    with pytest.raises(ValueError):
        SatelliteOutage(start_s=10.0, end_s=10.0)
    with pytest.raises(ValueError):
        ObstructionBurst(start_s=0.0, end_s=5.0, severity=0.0)
    with pytest.raises(ValueError):
        GatewayFailure(start_s=0.0, end_s=5.0, capacity_factor=1.5)
    with pytest.raises(ValueError):
        CellSectorOutage(start_s=0.0, end_s=5.0, carrier="RM")


def test_satellite_outage_targets_only_starlink():
    event = SatelliteOutage(start_s=10.0, end_s=20.0)
    assert event.effect_on("MOB", 0, 15.0, POSITION).blackout
    assert event.effect_on("RM", 0, 15.0, POSITION).blackout
    assert event.effect_on("VZ", 0, 15.0, POSITION) is None
    # Outside the window / on the wrong drive: inactive.
    assert event.effect_on("MOB", 0, 25.0, POSITION) is None
    pinned = SatelliteOutage(start_s=10.0, end_s=20.0, drive_id=2)
    assert pinned.effect_on("MOB", 0, 15.0, POSITION) is None
    assert pinned.effect_on("MOB", 2, 15.0, POSITION) is not None


def test_cell_sector_outage_targets_one_carrier():
    event = CellSectorOutage(start_s=0.0, end_s=60.0, carrier="TM")
    assert event.effect_on("TM", 0, 30.0, POSITION).blackout
    assert event.effect_on("ATT", 0, 30.0, POSITION) is None
    assert event.effect_on("MOB", 0, 30.0, POSITION) is None


def test_weather_front_geography_and_drift():
    event = WeatherFront(
        start_s=0.0,
        end_s=3600.0,
        center=POSITION,
        radius_km=50.0,
        speed_kmh=100.0,
        bearing_deg=90.0,
    )
    inside = event.effect_on("MOB", 0, 0.0, POSITION)
    assert inside is not None and inside.capacity_factor < 1.0
    far = GeoPoint(40.0, -90.0)  # ~425 km east
    assert event.effect_on("MOB", 0, 0.0, far) is None
    # After ~3.5 h the front would have drifted ~350 km east; by the end
    # of its window it has moved off the origin.
    assert event.center_at(3600.0).lon_deg > POSITION.lon_deg
    # Cellular links only see the mild attenuation.
    cell = event.effect_on("VZ", 0, 0.0, POSITION)
    assert cell.capacity_factor == pytest.approx(event.cellular_capacity_factor)


def test_weather_front_without_center_is_region_wide():
    event = WeatherFront(start_s=0.0, end_s=10.0)
    for lat, lon in ((0.0, 0.0), (45.0, -120.0)):
        assert event.effect_on("RM", 0, 5.0, GeoPoint(lat, lon)) is not None


def test_compose_blackout_wins_and_factors_multiply():
    combined = FaultSchedule.compose(
        [
            FaultEffect(capacity_factor=0.5, extra_loss=0.01, extra_rtt_ms=10.0),
            FaultEffect(capacity_factor=0.5, extra_loss=0.02, extra_rtt_ms=5.0),
        ]
    )
    assert not combined.blackout
    assert combined.capacity_factor == pytest.approx(0.25)
    assert combined.extra_loss == pytest.approx(0.03)
    assert combined.extra_rtt_ms == pytest.approx(15.0)
    assert FaultSchedule.compose(
        [FaultEffect(blackout=True), FaultEffect(capacity_factor=0.9)]
    ).blackout


def test_schedule_json_roundtrip_and_fingerprint():
    schedule = generate_schedule(seed=11, num_drives=3, drive_duration_s=1800.0)
    clone = FaultSchedule(
        tuple(event_from_dict(raw) for raw in json.loads(schedule.to_json()))
    )
    assert clone == schedule
    assert clone.fingerprint() == schedule.fingerprint()
    other = generate_schedule(seed=12, num_drives=3, drive_duration_s=1800.0)
    assert other.fingerprint() != schedule.fingerprint()


def test_generate_schedule_deterministic():
    a = generate_schedule(seed=4, num_drives=2, drive_duration_s=3600.0)
    b = generate_schedule(seed=4, num_drives=2, drive_duration_s=3600.0)
    assert a == b
    assert len(a) > 0
    counts = a.counts_by_kind()
    assert sum(counts.values()) == len(a)


def test_generate_schedule_validation():
    with pytest.raises(ValueError):
        generate_schedule(seed=0, num_drives=0, drive_duration_s=100.0)
    with pytest.raises(ValueError):
        generate_schedule(seed=0, num_drives=1, drive_duration_s=0.0)
    with pytest.raises(ValueError):
        generate_schedule(seed=0, num_drives=1, drive_duration_s=100.0, intensity=-1.0)


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        event_from_dict({"kind": "alien_invasion", "start_s": 0.0, "end_s": 1.0})


class _FixedChannel:
    """Deterministic stand-in for a Starlink/cellular channel."""

    def __init__(self, downlink_mbps=100.0, loss_rate=0.0):
        self.downlink_mbps = downlink_mbps
        self.loss_rate = loss_rate
        self.samples_taken = 0
        self.resets = 0

    def sample(self, time_s, position, speed_kmh, area):
        self.samples_taken += 1
        return LinkConditions(
            time_s=time_s,
            downlink_mbps=self.downlink_mbps,
            uplink_mbps=10.0,
            rtt_ms=50.0,
            loss_rate=self.loss_rate,
            loss_burst=8.0,
        )

    def reset(self):
        self.resets += 1


def _inject(schedule, network="MOB", drive_id=0):
    channel = _FixedChannel()
    return channel, FaultInjector(channel, network, schedule, drive_id=drive_id)


def test_injector_blackout_skips_channel_and_counts():
    schedule = FaultSchedule((SatelliteOutage(start_s=5.0, end_s=8.0),))
    channel, injector = _inject(schedule)
    for t in range(10):
        conditions = injector.sample(float(t), POSITION, 50.0, AreaType.RURAL)
        if 5 <= t < 8:
            assert conditions.is_outage
        else:
            assert not conditions.is_outage
    # Blackout seconds never touch the wrapped channel.
    assert channel.samples_taken == 7
    assert injector.outage_seconds == 3
    assert injector.fault_seconds == {"satellite_outage": 3}


def test_injector_degrades_without_blackout():
    schedule = FaultSchedule(
        (GatewayFailure(start_s=0.0, end_s=10.0, capacity_factor=0.5, extra_rtt_ms=40.0),)
    )
    _, injector = _inject(schedule)
    conditions = injector.sample(1.0, POSITION, 50.0, AreaType.RURAL)
    assert conditions.downlink_mbps == pytest.approx(50.0)
    assert conditions.rtt_ms == pytest.approx(90.0)
    assert not conditions.is_outage
    # Off-target network passes through untouched.
    _, cell_injector = _inject(schedule, network="ATT")
    untouched = cell_injector.sample(1.0, POSITION, 50.0, AreaType.RURAL)
    assert untouched.downlink_mbps == pytest.approx(100.0)
    assert cell_injector.fault_seconds == {}


def test_injector_reset_forwards_to_channel():
    channel, injector = _inject(FaultSchedule())
    injector.reset()
    assert channel.resets == 1
