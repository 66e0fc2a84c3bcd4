"""SNR -> throughput mapping per band, with cell-load sharing.

The user's achievable rate is the band's channel bandwidth times the
spectral efficiency at the current SNR, multiplied by the scheduler share
the cell can give one user, and capped at the band's practical peak.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.cellular.carriers import BAND_PEAK_DL_MBPS, BAND_PEAK_UL_MBPS, Band
from repro.cellular.propagation import shannon_efficiency
from repro.geo.classify import AreaType

#: Effective downlink channel bandwidth per band (MHz).
BAND_BANDWIDTH_MHZ = {
    Band.LTE: 20.0,
    Band.LOW_BAND_5G: 45.0,
    Band.MID_BAND_5G: 100.0,
}

#: Fraction of downlink bandwidth usable for uplink traffic (TDD split
#: and UE power limits folded together).
UPLINK_FRACTION = 0.28


def draw_band(
    mix: dict[Band, float], gen: np.random.Generator
) -> Band:
    """Sample the serving band from a carrier's area-specific mix."""
    bands = list(mix.keys())
    probs = np.array([mix[b] for b in bands], dtype=float)
    probs /= probs.sum()
    return bands[int(gen.choice(len(bands), p=probs))]


class CellLoad:
    """Mean-reverting cell utilization, busier in populated areas."""

    #: Long-run mean load per area type.
    MEAN_LOAD: ClassVar[dict[AreaType, float]] = {
        AreaType.URBAN: 0.45,
        AreaType.SUBURBAN: 0.35,
        AreaType.RURAL: 0.25,
    }

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._load = 0.4

    def step(self, area: AreaType) -> float:
        """Advance one second; return the user's scheduler share in (0, 1]."""
        mean = self.MEAN_LOAD[area]
        self._load += 0.15 * (mean - self._load) + float(self._gen.normal(0, 0.03))
        self._load = float(np.clip(self._load, 0.02, 0.95))
        return 1.0 - self._load


def achievable_rate(
    band: Band, snr_db_value: float, scheduler_share: float
) -> tuple[float, float]:
    """(downlink, uplink) Mbps for a band/SNR/share combination."""
    if not 0.0 < scheduler_share <= 1.0:
        raise ValueError(
            f"scheduler share must be in (0, 1], got {scheduler_share}"
        )
    efficiency = shannon_efficiency(snr_db_value)
    raw_dl = BAND_BANDWIDTH_MHZ[band] * efficiency * scheduler_share
    dl = min(raw_dl, BAND_PEAK_DL_MBPS[band])
    # Uplink: lower bandwidth and a small link-budget penalty.  The UE's
    # power deficit is largely offset by power control over narrow
    # allocations, so the per-Hz penalty is mild.
    ul_efficiency = shannon_efficiency(snr_db_value - 2.0)
    raw_ul = (
        BAND_BANDWIDTH_MHZ[band] * UPLINK_FRACTION * ul_efficiency * scheduler_share
    )
    ul = min(raw_ul, BAND_PEAK_UL_MBPS[band])
    return dl, ul
