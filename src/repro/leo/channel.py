"""Starlink link-condition model: geometry + scheduling -> per-second samples.

This is where the LEO substrate's pieces meet: the constellation and
visibility geometry select a serving satellite, the handover process applies
the 15 s reconfiguration grid, the dish plan sets peaks / priority /
tracking, and the gateway network prices the bent-pipe RTT.  The output is a
:class:`repro.conditions.LinkConditions` per second, the common currency of
the analysis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conditions import LinkConditions, outage
from repro.geo.classify import AreaType
from repro.geo.coords import GeoPoint
from repro.geo.places import PlaceDatabase
from repro.geo.terrain import ObstructionProcess
from repro.leo.constellation import Constellation
from repro.leo.dish import DishModel
from repro.leo.gateway import GatewayNetwork
from repro.leo.handover import HandoverProcess
from repro.leo.visibility import VisibilityModel
from repro.obs.recorder import get_recorder
from repro.rng import RngStreams


@dataclass(frozen=True)
class WeatherState:
    """Simplified weather attenuation (Section 3.3: clear / rain / snow)."""

    name: str
    capacity_factor: float
    extra_loss: float


CLEAR = WeatherState("clear", 1.0, 0.0)
RAIN = WeatherState("rain", 0.82, 0.002)
SNOW = WeatherState("snow", 0.75, 0.003)


class StarlinkChannel:
    """Per-second Starlink link conditions for one dish on the vehicle."""

    #: Latency from the Starlink PoP to the measurement server (ms, one way).
    POP_TO_SERVER_MS = 12.0
    #: Mean scheduling/queueing delay added by the Starlink frame grid (ms).
    SCHEDULING_MS = 18.0
    #: Starlink loss clusters around 15 s reconfigurations and blockage
    #: onsets: long runs of consecutive packets per loss event.
    LOSS_BURST = 80.0

    def __init__(
        self,
        dish: DishModel,
        constellation: Constellation | None = None,
        gateways: GatewayNetwork | None = None,
        places: PlaceDatabase | None = None,
        rng: RngStreams | None = None,
        weather: WeatherState = CLEAR,
        recorder=None,
    ):
        rng = rng or RngStreams(0)
        places = places or PlaceDatabase.synthetic(rng)
        self.dish = dish
        self.constellation = constellation or Constellation()
        self.visibility = VisibilityModel(self.constellation)
        self.gateways = gateways or GatewayNetwork.synthetic(places, rng)
        self.weather = weather
        self._gen = rng.get(f"leo.channel.{dish.plan.value}")
        self.handover = HandoverProcess(self._gen)
        self.obstruction = ObstructionProcess(
            rng, stream=f"leo.obstruction.{dish.plan.value}"
        )
        # Slowly varying cell-load factor (AR(1)), shared across seconds.
        self._load = 0.5
        self._sector_refresh_s = -1e9
        self._sectors: list[tuple[float, float]] = []
        self._positions_cache: tuple[float, np.ndarray] | None = None
        obs = recorder if recorder is not None else get_recorder()
        network = dish.plan.value
        self._m_samples = obs.counter("channel.samples", network=network)
        self._m_outage = obs.counter("channel.outage_seconds", network=network)
        self._m_handovers = obs.counter("channel.handovers", network=network)
        self._last_serving = -1

    def sample(
        self,
        time_s: float,
        position: GeoPoint,
        speed_kmh: float,
        area: AreaType,
    ) -> LinkConditions:
        """Link conditions for this second of driving."""
        self._m_samples.inc()
        sky = self.obstruction.step(area)
        if sky.deep_blockage:
            # An overpass / canyon fully breaks the satellite link.
            self.handover.step(time_s, [])
            self._last_serving = -1
            self._m_outage.inc()
            return outage(time_s)

        # Refresh the random azimuth blockage wedges every ~30 s of driving
        # (the skyline changes as the vehicle moves).
        if time_s - self._sector_refresh_s > 30.0:
            self._sectors = VisibilityModel.random_blocked_sectors(
                sky.fraction, self._gen
            )
            self._sector_refresh_s = time_s

        candidates = self.visibility.visible_satellites(
            position,
            time_s,
            self.dish,
            obstruction_fraction=sky.fraction,
            blocked_sectors=self._sectors,
        )
        state = self.handover.step(time_s, [c.index for c in candidates])
        serving_id = state.serving_satellite
        if serving_id != self._last_serving:
            # A switch between two live satellites is a handover; falling
            # to or recovering from -1 is an outage edge, counted above.
            if serving_id != -1 and self._last_serving != -1:
                self._m_handovers.inc()
            self._last_serving = serving_id
        if serving_id == -1:
            self._m_outage.inc()
            return outage(time_s)

        # The handover process only ever serves a satellite from the
        # candidate list it was just given.
        serving = next(c for c in candidates if c.index == serving_id)
        capacity_dl, capacity_ul = self._capacities(
            serving.elevation_deg, speed_kmh, sky.fraction, state.capacity_factor
        )
        rtt_ms = self._rtt_ms(time_s, position, serving.index)
        loss = self._loss_rate(sky.fraction, speed_kmh, state.extra_loss)
        return LinkConditions(
            time_s=time_s,
            downlink_mbps=capacity_dl,
            uplink_mbps=capacity_ul,
            rtt_ms=rtt_ms,
            loss_rate=loss,
            loss_burst=self.LOSS_BURST,
        )

    def _capacities(
        self,
        elevation_deg: float,
        speed_kmh: float,
        obstruction: float,
        handover_factor: float,
    ) -> tuple[float, float]:
        """Downlink/uplink capacity for the current serving geometry."""
        # Link budget improves with elevation (shorter slant range, less
        # atmosphere): 0.55 at the mask edge up to 1.0 at zenith.
        elev_factor = 0.70 + 0.30 * np.sin(np.radians(max(elevation_deg, 0.0)))
        # Cell load: mean-reverting share of the satellite's capacity.  The
        # Mobility plan's priority weight shields it from congestion.
        self._load += 0.2 * (0.35 - self._load) + float(self._gen.normal(0, 0.06))
        self._load = float(np.clip(self._load, 0.05, 0.95))
        share = 1.0 - self._load / self.dish.priority_weight
        # In-motion tracking penalty: fully applied above ~20 km/h, so the
        # speed buckets of Fig. 6 stay flat (Starlink sats move at 27,000
        # km/h — vehicle speed is negligible; only *being* in motion hurts
        # a dish not built for it).
        motion = 1.0 - (1.0 - self.dish.motion_tracking_factor) * min(
            speed_kmh / 20.0, 1.0
        )
        sky_factor = 1.0 - 0.8 * obstruction
        fade = float(self._gen.lognormal(mean=0.0, sigma=0.12))
        factor = (
            elev_factor
            * share
            * motion
            * sky_factor
            * handover_factor
            * self.weather.capacity_factor
            * min(fade, 2.0)
        )
        dl = max(0.0, self.dish.peak_downlink_mbps * factor)
        ul = max(0.0, self.dish.peak_uplink_mbps * factor)
        return dl, ul

    def _rtt_ms(self, time_s: float, position: GeoPoint, sat_index: int) -> float:
        """Bent-pipe RTT plus PoP-to-server path and frame-grid jitter."""
        positions = self._positions(time_s)
        space_rtt = self.gateways.bent_pipe_rtt_ms(
            position, positions[sat_index], scheduling_ms=self.SCHEDULING_MS
        )
        jitter = float(self._gen.exponential(8.0))
        return space_rtt + 2.0 * self.POP_TO_SERVER_MS + jitter

    def _loss_rate(
        self, obstruction: float, speed_kmh: float, handover_loss: float
    ) -> float:
        """Random packet loss: the paper's headline Starlink weakness."""
        base = 0.0028 + 0.010 * obstruction
        motion_loss = self.dish.motion_loss_extra * min(speed_kmh / 20.0, 1.0)
        burst = float(self._gen.exponential(0.001))
        total = (
            base + motion_loss + handover_loss + burst + self.weather.extra_loss
        )
        return float(np.clip(total, 0.0, 1.0))

    def _positions(self, time_s: float) -> np.ndarray:
        """Constellation positions, cached for the current second."""
        if self._positions_cache is None or self._positions_cache[0] != time_s:
            self._positions_cache = (
                time_s,
                self.constellation.positions_ecef_km(time_s),
            )
        return self._positions_cache[1]

    def reset(self) -> None:
        """Reset per-drive state (new test session)."""
        self.handover.reset()
        self.obstruction.reset()
        self._load = 0.5
        self._sector_refresh_s = -1e9
        self._sectors = []
        self._last_serving = -1
