"""Seed-driven fault-schedule generation.

Builds a :class:`repro.faults.FaultSchedule` from a seed and the campaign
shape (number of drives, per-drive duration).  The draws come from a
dedicated :class:`repro.rng.RngStreams` substream, so the same seed always
yields the same schedule and the fault process never perturbs the channel
physics streams.

Rates are per drive-hour and loosely calibrated to the disruption
frequencies the road-measurement papers report: short satellite gaps many
times an hour, sector/gateway events much rarer, weather synoptic-scale.
"""

from __future__ import annotations

import math

from repro.faults.events import (
    CELLULAR_NETWORKS,
    CellSectorOutage,
    FaultEvent,
    GatewayFailure,
    ObstructionBurst,
    SatelliteOutage,
    WeatherFront,
)
from repro.faults.schedule import FaultSchedule
from repro.geo.coords import GeoPoint, destination_point
from repro.rng import RngStreams

#: Mean events per drive-hour at intensity 1.0.
RATES_PER_HOUR = {
    "satellite_outage": 4.0,
    "gateway_failure": 0.25,
    "obstruction_burst": 6.0,
    "weather_front": 0.4,
    "cell_sector_outage": 0.5,
}

#: Duration ranges (seconds) per fault kind.
DURATIONS_S = {
    "satellite_outage": (2.0, 12.0),
    "gateway_failure": (60.0, 420.0),
    "obstruction_burst": (5.0, 45.0),
    "weather_front": (600.0, 3600.0),
    "cell_sector_outage": (30.0, 300.0),
}

_CARRIERS = CELLULAR_NETWORKS


def generate_schedule(
    seed: int,
    num_drives: int,
    drive_duration_s: float,
    intensity: float = 1.0,
    region_center: GeoPoint | None = None,
) -> FaultSchedule:
    """Draw a deterministic schedule for a whole campaign.

    Each drive gets independent Poisson event counts at
    ``RATES_PER_HOUR * intensity``, with start times uniform over the
    drive and durations uniform over each kind's range.  Weather fronts
    get a geographic disc near ``region_center`` when one is given,
    otherwise they are region-wide.
    """
    if num_drives <= 0:
        raise ValueError(f"num_drives must be positive, got {num_drives}")
    if not 0.0 < drive_duration_s < math.inf:
        raise ValueError(
            f"drive_duration_s must be finite and positive, got {drive_duration_s}"
        )
    if not 0.0 <= intensity < math.inf:
        raise ValueError(f"intensity must be finite and non-negative, got {intensity}")

    gen = RngStreams(seed).get("faults.generate")
    hours = drive_duration_s / 3600.0
    events: list[FaultEvent] = []

    for drive_id in range(num_drives):
        for kind, rate in RATES_PER_HOUR.items():
            count = int(gen.poisson(rate * intensity * hours))
            lo, hi = DURATIONS_S[kind]
            for _ in range(count):
                duration = float(gen.uniform(lo, hi))
                start = float(gen.uniform(0.0, max(1.0, drive_duration_s - duration)))
                events.append(
                    _make_event(kind, drive_id, start, start + duration, gen, region_center)
                )

    events.sort(key=lambda e: (e.drive_id if e.drive_id is not None else -1, e.start_s))
    return FaultSchedule(tuple(events))


def _make_event(kind, drive_id, start_s, end_s, gen, region_center):
    window = dict(start_s=start_s, end_s=end_s, drive_id=drive_id)
    if kind == "satellite_outage":
        return SatelliteOutage(**window)
    if kind == "gateway_failure":
        return GatewayFailure(
            **window,
            capacity_factor=float(gen.uniform(0.35, 0.7)),
            extra_rtt_ms=float(gen.uniform(25.0, 80.0)),
        )
    if kind == "obstruction_burst":
        return ObstructionBurst(
            **window,
            severity=float(gen.uniform(0.5, 1.0)),
            extra_loss=float(gen.uniform(0.005, 0.05)),
        )
    if kind == "weather_front":
        center = None
        if region_center is not None:
            # Spawn the front upwind of the region so it sweeps across.
            center = destination_point(
                region_center,
                float(gen.uniform(0.0, 360.0)),
                float(gen.uniform(0.0, 120.0)),
            )
        return WeatherFront(
            **window,
            capacity_factor=float(gen.uniform(0.6, 0.85)),
            extra_loss=float(gen.uniform(0.001, 0.006)),
            center=center,
            radius_km=float(gen.uniform(30.0, 120.0)),
            speed_kmh=float(gen.uniform(15.0, 60.0)),
            bearing_deg=float(gen.uniform(0.0, 360.0)),
        )
    if kind == "cell_sector_outage":
        return CellSectorOutage(
            **window, carrier=_CARRIERS[int(gen.integers(0, len(_CARRIERS)))]
        )
    raise ValueError(f"unknown fault kind {kind!r}")
