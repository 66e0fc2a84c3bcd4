"""Vehicle mobility along a route.

Produces a 1 Hz trace of (time, position, speed, heading) samples for a
drive, respecting per-segment speed limits with smooth acceleration and mild
speed noise.  This is the substrate the 5G-Tracker-like metadata logger reads
and the channel models are conditioned on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.coords import GeoPoint, initial_bearing_deg
from repro.geo.routes import Route
from repro.rng import RngStreams
from repro.units import kmh_to_ms, ms_to_kmh


@dataclass(frozen=True)
class MobilitySample:
    """One 1 Hz sample of vehicle state."""

    time_s: float
    position: GeoPoint
    speed_kmh: float
    heading_deg: float
    route_km: float


@dataclass(frozen=True)
class DriverProfile:
    """How the driver tracks the limit.

    ``limit_adherence`` scales the target speed relative to the limit and
    ``accel_ms2`` bounds acceleration/braking.  Speed noise models traffic.
    """

    limit_adherence: float = 0.97
    accel_ms2: float = 1.5
    speed_noise_kmh: float = 4.0


class VehicleTrace:
    """Simulate a drive over ``route`` and expose the 1 Hz samples.

    ``fast`` (the default) runs the drive against a precomputed
    :class:`repro.geo.route_table.RouteTable` — bit-identical samples
    to the legacy per-step route rescan, without recomputing each
    segment's haversine length on every lookup.  ``max_samples`` stops
    the drive once that many samples exist; the produced samples equal
    the first ``max_samples`` of a full drive (the mobility RNG stream
    is private to this trace, so stopping early perturbs nothing else).
    """

    def __init__(
        self,
        route: Route,
        rng: RngStreams | None = None,
        profile: DriverProfile | None = None,
        sample_period_s: float = 1.0,
        fast: bool = True,
        max_samples: int | None = None,
    ):
        if sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.route = route
        self.profile = profile or DriverProfile()
        self.sample_period_s = sample_period_s
        self.max_samples = max_samples
        self._rng = (rng or RngStreams(0)).get(f"geo.mobility.{route.name}")
        self.samples: list[MobilitySample] = []
        if fast:
            self._drive_fast()
        else:
            self._drive()

    @property
    def duration_s(self) -> float:
        return self.samples[-1].time_s if self.samples else 0.0

    @property
    def distance_km(self) -> float:
        return self.samples[-1].route_km if self.samples else 0.0

    def _drive(self) -> None:
        route_len = self.route.length_km
        if route_len <= 0:
            raise ValueError(f"route {self.route.name!r} has zero length")
        t = 0.0
        dist_km = 0.0
        speed_ms = 0.0
        dt = self.sample_period_s
        max_steps = int(1e6)
        for _ in range(max_steps):
            seg = self.route.segment_at_km(min(dist_km, route_len - 1e-9))
            target_ms = kmh_to_ms(
                seg.speed_limit_kmh * self.profile.limit_adherence
                + float(self._rng.normal(0.0, self.profile.speed_noise_kmh))
            )
            target_ms = max(target_ms, kmh_to_ms(15.0))
            # Bounded acceleration toward the target speed.
            delta = np.clip(
                target_ms - speed_ms,
                -self.profile.accel_ms2 * dt,
                self.profile.accel_ms2 * dt,
            )
            speed_ms = max(0.0, speed_ms + float(delta))
            pos = self.route.position_at_km(min(dist_km, route_len))
            heading = initial_bearing_deg(seg.start, seg.end)
            self.samples.append(
                MobilitySample(
                    time_s=t,
                    position=pos,
                    speed_kmh=ms_to_kmh(speed_ms),
                    heading_deg=heading,
                    route_km=dist_km,
                )
            )
            if dist_km >= route_len:
                break
            if (
                self.max_samples is not None
                and len(self.samples) >= self.max_samples
            ):
                break
            dist_km = min(route_len, dist_km + speed_ms * dt / 1000.0)
            t += dt
        else:
            raise RuntimeError(
                f"drive over route {self.route.name!r} did not terminate"
            )

    def _drive_fast(self) -> None:
        """The legacy drive loop against a precomputed route table.

        Per-step arithmetic (speed noise draw, clipped acceleration,
        interpolated position, heading) replays the legacy ``_drive``
        bit-for-bit; only the O(segments)-haversines-per-step route
        rescan is replaced by the table's exact cached-length scan (see
        :class:`repro.geo.route_table.RouteTable`).
        """
        from repro.geo.route_table import RouteTable

        table = RouteTable(self.route)
        route_len = table.length_km
        if route_len <= 0:
            raise ValueError(f"route {self.route.name!r} has zero length")
        t = 0.0
        dist_km = 0.0
        speed_ms = 0.0
        dt = self.sample_period_s
        max_steps = int(1e6)
        for _ in range(max_steps):
            seg_idx = table.segment_index_at_km(
                min(dist_km, route_len - 1e-9)
            )
            target_ms = kmh_to_ms(
                table.limit_list[seg_idx] * self.profile.limit_adherence
                + float(self._rng.normal(0.0, self.profile.speed_noise_kmh))
            )
            target_ms = max(target_ms, kmh_to_ms(15.0))
            # min/max of floats == the legacy loop's np.clip bitwise,
            # without the per-step ufunc dispatch.
            accel = self.profile.accel_ms2 * dt
            delta = min(max(target_ms - speed_ms, -accel), accel)
            speed_ms = max(0.0, speed_ms + delta)
            pos = table.position_at_km(min(dist_km, route_len))
            heading = table.heading_list[seg_idx]
            self.samples.append(
                MobilitySample(
                    time_s=t,
                    position=pos,
                    speed_kmh=ms_to_kmh(speed_ms),
                    heading_deg=heading,
                    route_km=dist_km,
                )
            )
            if dist_km >= route_len:
                break
            if (
                self.max_samples is not None
                and len(self.samples) >= self.max_samples
            ):
                break
            dist_km = min(route_len, dist_km + speed_ms * dt / 1000.0)
            t += dt
        else:
            raise RuntimeError(
                f"drive over route {self.route.name!r} did not terminate"
            )
