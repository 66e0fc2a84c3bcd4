"""Cellular substrate: carriers, deployment, propagation, channel model.

Stands in for the three commercial carriers (AT&T, T-Mobile, Verizon) the
paper's phones were subscribed to.
"""

from repro.cellular.capacity import (
    BAND_BANDWIDTH_MHZ,
    CellLoad,
    achievable_rate,
    draw_band,
)
from repro.cellular.carriers import (
    ALL_CARRIERS,
    BAND_PEAK_DL_MBPS,
    BAND_PEAK_UL_MBPS,
    Band,
    CarrierProfile,
    att,
    carrier_by_short_name,
    tmobile,
    verizon,
)
from repro.cellular.channel import CellularChannel
from repro.cellular.deployment import ServingCellTracker, nearest_site_distance_km
from repro.cellular.propagation import (
    CorrelatedShadowing,
    path_loss_db,
    shannon_efficiency,
    snr_db,
)

__all__ = [
    "ALL_CARRIERS",
    "BAND_BANDWIDTH_MHZ",
    "BAND_PEAK_DL_MBPS",
    "BAND_PEAK_UL_MBPS",
    "Band",
    "CarrierProfile",
    "CellLoad",
    "CellularChannel",
    "CorrelatedShadowing",
    "ServingCellTracker",
    "achievable_rate",
    "att",
    "carrier_by_short_name",
    "draw_band",
    "nearest_site_distance_km",
    "path_loss_db",
    "shannon_efficiency",
    "snr_db",
    "tmobile",
    "verizon",
]
