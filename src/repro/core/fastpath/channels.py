"""Scalarized channel subclasses for the fast path.

The legacy channels (:class:`repro.leo.channel.StarlinkChannel`,
:class:`repro.cellular.channel.CellularChannel`) call numpy ufuncs on
scalars once per simulated second — ``np.clip``, ``np.sin`` — paying ufunc
dispatch for single floats.  These subclasses replace those calls with the
``math`` / builtin equivalents that are bitwise identical on float64
scalars (``math.sin(math.radians(x)) == np.sin(np.radians(x))`` and
``min(max(x, lo), hi) == np.clip(x, lo, hi)``; both verified by
``tests/test_fastpath_equivalence.py``).  Every random draw keeps the
legacy order and generator, so the emitted
:class:`~repro.conditions.LinkConditions` are byte-identical.

:class:`StarlinkChannelFast` also owns the drive's
:class:`~repro.core.fastpath.GeometryTimeline`: the seconds it knows
read candidates, serving elevation and bent-pipe RTT from its flat
table instead of computing the geometry per second.

The legacy classes stay the readable reference implementation; the
campaign only instantiates these subclasses when
``CampaignConfig.fastpath`` is on.
"""

from __future__ import annotations

import math

from repro.cellular.capacity import (
    BAND_BANDWIDTH_MHZ,
    UPLINK_FRACTION,
    CellLoad,
    draw_band,
)
from repro.cellular.carriers import BAND_PEAK_DL_MBPS, BAND_PEAK_UL_MBPS
from repro.cellular.channel import CellularChannel
from repro.cellular.deployment import nearest_site_distance_km
from repro.cellular.propagation import (
    LINK_BUDGET_DB,
    PATH_LOSS_EXPONENT,
    REFERENCE_DISTANCE_KM,
    REFERENCE_LOSS_DB,
)
from repro.conditions import LinkConditions, outage
from repro.geo.classify import AreaType
from repro.geo.coords import GeoPoint
from repro.geo.terrain import (
    _EPISODE_RATE,
    _MEAN_OBSTRUCTION,
    ObstructionProcess,
    ObstructionSample,
)
from repro.leo.channel import StarlinkChannel
from repro.leo.visibility import VisibilityModel

__all__ = [
    "CellularChannelFast",
    "ObstructionProcessFast",
    "StarlinkChannelFast",
]


def _adopt(fast_cls, legacy):
    """Rebind a freshly-constructed legacy component to its fast subclass.

    Copies the component's state (including its generator reference, so
    the RNG stream position is shared, not restarted) instead of
    re-running ``__init__``.
    """
    fast = fast_cls.__new__(fast_cls)
    fast.__dict__.update(legacy.__dict__)
    return fast


class ObstructionProcessFast(ObstructionProcess):
    """Obstruction process with the per-second ``np.clip`` scalarized.

    The area-keyed constants are cached behind an identity check: the
    vehicle stays in one area type for long stretches, so the enum-dict
    lookups (which hash the member name) collapse to one ``is``.
    """

    _area_cache: tuple[AreaType | None, float, float] = (None, 0.0, 0.0)

    def step(self, area: AreaType) -> ObstructionSample:
        cached = self._area_cache
        if cached[0] is not area:
            cached = (area, _MEAN_OBSTRUCTION[area], _EPISODE_RATE[area])
            self._area_cache = cached
        mean = cached[1]
        noise = float(self._rng.normal(0.0, self.volatility))
        self._fraction += self.reversion * (mean - self._fraction) + noise
        self._fraction = min(max(self._fraction, 0.0), 0.95)

        if self._episode_left_s > 0:
            self._episode_left_s -= 1
            return ObstructionSample(fraction=0.95, deep_blockage=True)

        if self._rng.random() < cached[2]:
            self._episode_left_s = int(self._rng.integers(3, 13))
            return ObstructionSample(fraction=0.95, deep_blockage=True)

        return ObstructionSample(fraction=self._fraction, deep_blockage=False)


class CellularChannelFast(CellularChannel):
    """Cellular channel with the whole per-second pipeline scalarized.

    :meth:`sample` inlines the tracker / shadowing / SNR / band / load /
    rate chain of the legacy method into one function body: identical
    arithmetic (same expressions, same association order), identical
    draw sequence on the same generator, no per-component method
    dispatch.  State still lives on the legacy component objects so
    ``reset()`` and handover accounting behave identically.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (area, hole_probability/8, site_density, mean_nearest,
        # mean_load) behind an identity check — the vehicle stays in an
        # area type for long stretches, so the enum-dict lookups and the
        # derived constants collapse to one ``is`` per second.  The
        # cached values are exactly what the legacy expressions compute.
        self._area_cache: tuple = (None, 0.0, 0.0, 0.0, 0.0)
        # (band, bandwidth, peak_dl, peak_ul) — bands persist 90 s.
        self._band_cache: tuple = (None, 0.0, 0.0, 0.0)

    def sample(
        self,
        time_s: float,
        position: GeoPoint,
        speed_kmh: float,
        area: AreaType,
    ) -> LinkConditions:
        self._m_samples.inc()
        gen = self._gen
        carrier = self.carrier
        cached = self._area_cache
        if cached[0] is not area:
            density = carrier.site_density[area]
            cached = (
                area,
                carrier.hole_probability[area] / 8.0,
                density,
                0.5 / math.sqrt(density),
                CellLoad.MEAN_LOAD[area],
            )
            self._area_cache = cached
        _, hole_rate, density, mean_nearest, mean_load = cached
        if time_s < self._hole_until_s:
            self._m_outage.inc()
            return outage(time_s)
        if gen.random() < hole_rate:
            self._hole_until_s = time_s + float(gen.uniform(3.0, 15.0))
            self._m_outage.inc()
            return outage(time_s)

        # ServingCellTracker.step: the drift branch is the hot path; the
        # (rare) attach/handover branch reuses the legacy draw function.
        tracker = self.tracker
        distance_km = tracker._distance_km
        if distance_km is None or tracker._area != area:
            distance_km = nearest_site_distance_km(density, gen)
            tracker._area = area
            tracker.handover_count += 1
        else:
            # gen.uniform(-0.3, 1.0), which numpy computes as
            # low + (high - low) * next_double on the same stream.
            drift_km = speed_kmh / 3600.0 * (-0.3 + (1.0 - -0.3) * gen.random())
            distance_km = max(0.01, distance_km + drift_km)
            if distance_km > tracker.HANDOVER_RADIUS_FACTOR * mean_nearest:
                distance_km = nearest_site_distance_km(density, gen)
                tracker.handover_count += 1
        tracker._distance_km = distance_km
        if tracker.handover_count != self._counted_handovers:
            self._m_handovers.inc(
                tracker.handover_count - self._counted_handovers
            )
            self._counted_handovers = tracker.handover_count

        # CorrelatedShadowing.step + snr_db.
        shadowing = self.shadowing
        distance_m = max(speed_kmh, 0.0) / 3.6
        rho = math.exp(-distance_m / shadowing.decorrelation_m)
        innovation = float(
            gen.normal(0.0, shadowing.sigma_db * math.sqrt(1.0 - rho**2))
        )
        shadow_db = rho * shadowing._value_db + innovation
        shadowing._value_db = shadow_db
        fading_db = float(gen.normal(0.0, 1.5))
        d_ref = max(distance_km, REFERENCE_DISTANCE_KM)
        path_loss = REFERENCE_LOSS_DB + 10.0 * PATH_LOSS_EXPONENT * math.log10(
            d_ref / REFERENCE_DISTANCE_KM
        )
        snr = LINK_BUDGET_DB - path_loss + shadow_db + fading_db

        band = self._band
        if band is None or time_s >= self._band_until_s:
            mix = carrier.band_mix.get(area) or {}
            if not mix or sum(mix.values()) <= 0.0:
                self._band = None
                self._m_outage.inc()
                return outage(time_s, loss_burst=self.LOSS_BURST)
            band = draw_band(mix, gen)
            self._band = band
            self._band_until_s = time_s + self.BAND_DWELL_S

        # CellLoad.step.
        load = self.load
        level = load._load
        level = level + (
            0.15 * (mean_load - level) + float(gen.normal(0, 0.03))
        )
        if level < 0.02:
            level = 0.02
        elif level > 0.95:
            level = 0.95
        load._load = level
        share = 1.0 - level

        # achievable_rate (shannon_efficiency capped at 7.4 bits/s/Hz).
        band_cached = self._band_cache
        if band_cached[0] is not band:
            band_cached = (
                band,
                BAND_BANDWIDTH_MHZ[band],
                BAND_PEAK_DL_MBPS[band],
                BAND_PEAK_UL_MBPS[band],
            )
            self._band_cache = band_cached
        _, bandwidth, peak_dl, peak_ul = band_cached
        efficiency = math.log2(1.0 + 10.0 ** ((snr - 3.0) / 10.0))
        if efficiency > 7.4:
            efficiency = 7.4
        dl = bandwidth * efficiency * share
        if dl > peak_dl:
            dl = peak_dl
        snr_ul = snr - 2.0
        ul_efficiency = math.log2(1.0 + 10.0 ** ((snr_ul - 3.0) / 10.0))
        if ul_efficiency > 7.4:
            ul_efficiency = 7.4
        ul = bandwidth * UPLINK_FRACTION * ul_efficiency * share
        if ul > peak_ul:
            ul = peak_ul

        # _rtt_ms then _loss_rate, in the legacy draw order.
        radio_ms = float(gen.exponential(6.0))
        weak_penalty = (5.0 - snr) * 2.0 if snr < 5.0 else 0.0
        rtt = carrier.core_rtt_ms + radio_ms + weak_penalty
        weak_loss = 0.0008 if snr < -5.0 else 0.0
        burst = float(gen.exponential(5e-6))
        loss = 5e-6 + weak_loss + burst
        if loss < 0.0:
            loss = 0.0
        elif loss > 1.0:
            loss = 1.0
        return LinkConditions._of(time_s, dl, ul, rtt, loss, self.LOSS_BURST)


class StarlinkChannelFast(StarlinkChannel):
    """Starlink channel that replays a drive's precomputed geometry.

    Seconds an attached :class:`~repro.core.fastpath.GeometryTimeline`
    knows take their candidate rows, serving elevation and bent-pipe
    RTT from its flat table, with no per-second geometry objects;
    every other second runs the reference :meth:`StarlinkChannel.sample`.
    Either way the random draws, the handover process and the metrics
    are the reference channel's, in its order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.obstruction = _adopt(ObstructionProcessFast, self.obstruction)
        self._timeline = None

    def attach_timeline(self, timeline) -> None:
        """Replay the seconds ``timeline`` knows from its precomputed table.

        Unknown seconds silently fall back to the per-sample reference
        path; the results are bit-identical either way.
        """
        self._timeline = timeline

    def sample(
        self,
        time_s: float,
        position: GeoPoint,
        speed_kmh: float,
        area: AreaType,
    ) -> LinkConditions:
        timeline = self._timeline
        t_idx = timeline.index_of(time_s) if timeline is not None else None
        if t_idx is None:
            return StarlinkChannel.sample(self, time_s, position, speed_kmh, area)
        # Same control flow as the reference method, on table rows.
        self._m_samples.inc()
        sky = self.obstruction.step(area)
        if sky.deep_blockage:
            self.handover.step(time_s, [])
            self._last_serving = -1
            self._m_outage.inc()
            return outage(time_s)

        fraction = sky.fraction
        if time_s - self._sector_refresh_s > 30.0:
            self._sectors = VisibilityModel.random_blocked_sectors(
                fraction, self._gen
            )
            self._sector_refresh_s = time_s

        rows = timeline.visible(t_idx, self.dish, fraction, self._sectors)
        sat_ids = timeline.sat_ids
        candidates = [sat_ids[r] for r in rows]
        state = self.handover.step(time_s, candidates)
        serving_id = state.serving_satellite
        if serving_id != self._last_serving:
            if serving_id != -1 and self._last_serving != -1:
                self._m_handovers.inc()
            self._last_serving = serving_id
        if serving_id == -1:
            self._m_outage.inc()
            return outage(time_s)
        if serving_id not in candidates:
            self._m_outage.inc()
            return outage(time_s, loss_burst=self.LOSS_BURST)
        row = rows[candidates.index(serving_id)]

        capacity_dl, capacity_ul = self._capacities(
            timeline.elevations[row], speed_kmh, fraction, state.capacity_factor
        )
        # StarlinkChannel._rtt_ms with the space segment from the table.
        rtt_ms = (
            timeline.bent_pipe_rtt_ms(row, self.SCHEDULING_MS)
            + 2.0 * self.POP_TO_SERVER_MS
            + float(self._gen.exponential(8.0))
        )
        loss = self._loss_rate(fraction, speed_kmh, state.extra_loss)
        return LinkConditions._of(
            time_s, capacity_dl, capacity_ul, rtt_ms, loss, self.LOSS_BURST
        )

    def _capacities(
        self,
        elevation_deg: float,
        speed_kmh: float,
        obstruction: float,
        handover_factor: float,
    ) -> tuple[float, float]:
        elev_factor = 0.70 + 0.30 * math.sin(math.radians(max(elevation_deg, 0.0)))
        self._load += 0.2 * (0.35 - self._load) + float(self._gen.normal(0, 0.06))
        self._load = min(max(self._load, 0.05), 0.95)
        share = 1.0 - self._load / self.dish.priority_weight
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

    def _loss_rate(
        self, obstruction: float, speed_kmh: float, handover_loss: float
    ) -> float:
        base = 0.0028 + 0.010 * obstruction
        motion_loss = self.dish.motion_loss_extra * min(speed_kmh / 20.0, 1.0)
        burst = float(self._gen.exponential(0.001))
        total = base + motion_loss + handover_loss + burst + self.weather.extra_loss
        return min(max(total, 0.0), 1.0)
