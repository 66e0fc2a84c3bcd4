"""Typed fault events: the vocabulary of things that go wrong on a drive.

The paper's dataset exists because real drives are messy — obstructions,
weather fronts, satellite handover gaps, and dead cellular sectors (see
"Starlink on the Road" and "A Multifaceted Look at Starlink Performance").
Each event here is one such disruption regime, reduced to the same
interface: given a network, drive, time, and position, does the event
apply, and if so how does it attenuate that second's link?

Events are frozen dataclasses so a :class:`repro.faults.FaultSchedule` is
hashable/serializable and campaign checkpoints can fingerprint it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import ClassVar

from repro.geo.coords import GeoPoint, destination_point, haversine_km

#: Network identifiers, mirroring ``repro.core.dataset`` (duplicated here
#: because importing it would make ``repro.core`` <-> ``repro.faults``
#: circular; ``tests/test_faults.py`` pins the two in sync).
NETWORKS = ("RM", "MOB", "ATT", "TM", "VZ")
STARLINK_NETWORKS = ("RM", "MOB")
CELLULAR_NETWORKS = ("ATT", "TM", "VZ")


class FaultKind(str, Enum):
    """Tag for each fault regime (stable strings for reports/JSON)."""

    SATELLITE_OUTAGE = "satellite_outage"
    GATEWAY_FAILURE = "gateway_failure"
    OBSTRUCTION_BURST = "obstruction_burst"
    WEATHER_FRONT = "weather_front"
    CELL_SECTOR_OUTAGE = "cell_sector_outage"


@dataclass(frozen=True)
class FaultEffect:
    """How one active fault attenuates one second of one link.

    ``blackout`` short-circuits everything else: the second becomes a full
    :func:`repro.conditions.outage`.  Otherwise ``capacity_factor``
    multiplies both directions, ``extra_loss`` adds to the loss rate, and
    ``extra_rtt_ms`` adds to the RTT.
    """

    blackout: bool = False
    capacity_factor: float = 1.0
    extra_loss: float = 0.0
    extra_rtt_ms: float = 0.0


@dataclass(frozen=True, kw_only=True)
class FaultEvent:
    """Base fault: a time window, optionally pinned to one drive.

    ``drive_id=None`` means the event fires on every drive (drive-relative
    time); otherwise only on the named drive.  Subclasses narrow which
    networks are hit and what the effect is.
    """

    kind: ClassVar[FaultKind]

    start_s: float
    end_s: float
    drive_id: int | None = None

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ValueError(f"start_s must be non-negative, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"end_s must be after start_s, got [{self.start_s}, {self.end_s}]"
            )
        if self.drive_id is not None and self.drive_id < 0:
            raise ValueError(f"drive_id must be non-negative, got {self.drive_id}")

    # -- the one query the injector makes -------------------------------

    def effect_on(
        self,
        network: str,
        drive_id: int,
        time_s: float,
        position: GeoPoint,
    ) -> FaultEffect | None:
        """The attenuation this event applies, or None if inactive."""
        if self.drive_id is not None and drive_id != self.drive_id:
            return None
        if not self.start_s <= time_s < self.end_s:
            return None
        if network not in self._targets():
            return None
        return self._effect(time_s, position)

    # -- subclass hooks -------------------------------------------------

    def _targets(self) -> tuple[str, ...]:
        return NETWORKS

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect | None:
        raise NotImplementedError

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict, tagged with the event kind."""
        return {"kind": self.kind.value, **asdict(self)}


@dataclass(frozen=True, kw_only=True)
class SatelliteOutage(FaultEvent):
    """Constellation-side feed loss: the serving satellite goes dark.

    Models the multi-second gaps both Starlink road studies observe around
    failed handovers/ephemeris updates — a full blackout of every dish.
    """

    kind: ClassVar[FaultKind] = FaultKind.SATELLITE_OUTAGE

    def _targets(self) -> tuple[str, ...]:
        return STARLINK_NETWORKS

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect:
        return FaultEffect(blackout=True)


@dataclass(frozen=True, kw_only=True)
class GatewayFailure(FaultEvent):
    """Ground-station / PoP failure: traffic reroutes to a farther PoP.

    The bent pipe survives but the terrestrial leg lengthens: capacity
    drops (the backup gateway is shared) and RTT inflates.
    """

    kind: ClassVar[FaultKind] = FaultKind.GATEWAY_FAILURE

    capacity_factor: float = 0.55
    extra_rtt_ms: float = 45.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.capacity_factor <= 1.0:
            raise ValueError(
                f"capacity_factor must be in [0, 1], got {self.capacity_factor}"
            )
        if self.extra_rtt_ms < 0.0:
            raise ValueError(f"extra_rtt_ms must be non-negative, got {self.extra_rtt_ms}")

    def _targets(self) -> tuple[str, ...]:
        return STARLINK_NETWORKS

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect:
        return FaultEffect(
            capacity_factor=self.capacity_factor, extra_rtt_ms=self.extra_rtt_ms
        )


@dataclass(frozen=True, kw_only=True)
class ObstructionBurst(FaultEvent):
    """A sustained line-of-sight obstruction beyond the terrain process.

    Construction zones, tree tunnels, sound walls: severity is the
    fraction of capacity lost; at 1.0 the sky is fully blocked and the
    second is an outage.
    """

    kind: ClassVar[FaultKind] = FaultKind.OBSTRUCTION_BURST

    severity: float = 0.8
    extra_loss: float = 0.02

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.severity <= 1.0:
            raise ValueError(f"severity must be in (0, 1], got {self.severity}")
        if not 0.0 <= self.extra_loss <= 1.0:
            raise ValueError(f"extra_loss must be in [0, 1], got {self.extra_loss}")

    def _targets(self) -> tuple[str, ...]:
        return STARLINK_NETWORKS

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect:
        if self.severity >= 1.0:
            return FaultEffect(blackout=True)
        return FaultEffect(
            capacity_factor=1.0 - self.severity, extra_loss=self.extra_loss
        )


@dataclass(frozen=True, kw_only=True)
class WeatherFront(FaultEvent):
    """A moving rain/snow cell the drive can enter and leave.

    With a ``center`` the front is a geographic disc of ``radius_km`` that
    drifts at ``speed_kmh`` along ``bearing_deg`` from its position at
    ``start_s``; the fault applies only while the vehicle is inside it.
    Without a ``center`` the front is region-wide for the window.
    Satellite links take the full attenuation; cellular links a mild one
    (rain fade matters far less below 6 GHz).
    """

    kind: ClassVar[FaultKind] = FaultKind.WEATHER_FRONT

    capacity_factor: float = 0.72
    extra_loss: float = 0.004
    cellular_capacity_factor: float = 0.95
    center: GeoPoint | None = None
    radius_km: float = 60.0
    speed_kmh: float = 35.0
    bearing_deg: float = 90.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("capacity_factor", "cellular_capacity_factor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.radius_km <= 0.0:
            raise ValueError(f"radius_km must be positive, got {self.radius_km}")
        if self.speed_kmh < 0.0:
            raise ValueError(f"speed_kmh must be non-negative, got {self.speed_kmh}")

    def center_at(self, time_s: float) -> GeoPoint | None:
        """Where the front's center has drifted to by ``time_s``."""
        if self.center is None:
            return None
        travelled_km = self.speed_kmh * max(0.0, time_s - self.start_s) / 3600.0
        if travelled_km <= 0.0:
            return self.center
        return destination_point(self.center, self.bearing_deg, travelled_km)

    def effect_on(
        self,
        network: str,
        drive_id: int,
        time_s: float,
        position: GeoPoint,
    ) -> FaultEffect | None:
        base = super().effect_on(network, drive_id, time_s, position)
        if base is None:
            return None
        center = self.center_at(time_s)
        if center is not None and haversine_km(center, position) > self.radius_km:
            return None
        if network in CELLULAR_NETWORKS:
            return FaultEffect(capacity_factor=self.cellular_capacity_factor)
        return base

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect:
        return FaultEffect(
            capacity_factor=self.capacity_factor, extra_loss=self.extra_loss
        )


@dataclass(frozen=True, kw_only=True)
class CellSectorOutage(FaultEvent):
    """One carrier's sector goes dark (dead zone beyond coverage holes)."""

    kind: ClassVar[FaultKind] = FaultKind.CELL_SECTOR_OUTAGE

    carrier: str = "ATT"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.carrier not in CELLULAR_NETWORKS:
            raise ValueError(
                f"carrier must be one of {CELLULAR_NETWORKS}, got {self.carrier!r}"
            )

    def _targets(self) -> tuple[str, ...]:
        return (self.carrier,)

    def _effect(self, time_s: float, position: GeoPoint) -> FaultEffect:
        return FaultEffect(blackout=True)


#: kind tag -> event class, for deserialization.
EVENT_TYPES: dict[str, type[FaultEvent]] = {
    FaultKind.SATELLITE_OUTAGE.value: SatelliteOutage,
    FaultKind.GATEWAY_FAILURE.value: GatewayFailure,
    FaultKind.OBSTRUCTION_BURST.value: ObstructionBurst,
    FaultKind.WEATHER_FRONT.value: WeatherFront,
    FaultKind.CELL_SECTOR_OUTAGE.value: CellSectorOutage,
}


# Kept: shows the fault-schedule JSON hashed into the config fingerprint is lossless.
def event_from_dict(raw: dict) -> FaultEvent:  # detlint: ignore[DF401]
    """Rebuild an event serialized by :meth:`FaultEvent.to_dict`."""
    payload = dict(raw)
    kind = payload.pop("kind", None)
    if kind not in EVENT_TYPES:
        raise ValueError(f"unknown fault kind {kind!r}")
    if kind == FaultKind.WEATHER_FRONT.value and payload.get("center") is not None:
        payload["center"] = GeoPoint(**payload["center"])
    return EVENT_TYPES[kind](**payload)
